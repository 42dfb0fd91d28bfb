//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID

// cpuNow returns the CPU time every thread of the process has used. It
// excludes time the host steals from the guest's vCPUs, so throughput
// measured against it holds steady when neighbours load the host.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
