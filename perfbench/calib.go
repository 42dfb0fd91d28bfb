package main

import (
	"fmt"
	"sort"
	"time"
)

// refItem is one record of the reference work.
type refItem struct {
	key  uint64
	at   float64
	next *refItem
}

// refWork is a fixed amount of work shaped like the simulator's: small
// allocations, map inserts and lookups, pointer chasing and sorts of
// records by key. It depends on the standard library only, so a change
// to the repository never changes its cost.
func refWork() uint64 {
	const n = 4096
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var sum uint64
	for round := 0; round < 6; round++ {
		byKey := make(map[uint64]*refItem, n)
		items := make([]*refItem, 0, n)
		var prev *refItem
		for i := 0; i < n; i++ {
			it := &refItem{key: rnd(), at: float64(i) * 1.5, next: prev}
			byKey[it.key] = it
			items = append(items, it)
			prev = it
		}
		sort.Slice(items, func(i, j int) bool { return items[i].key < items[j].key })
		for _, it := range items {
			if byKey[it.key] == it {
				sum += uint64(it.at)
			}
		}
		for it := prev; it != nil; it = it.next {
			sum ^= it.key
		}
	}
	return sum
}

// refSink keeps refWork's result alive.
var refSink uint64

// refTime returns the CPU time of reps rounds of the reference work.
func refTime(reps int) time.Duration {
	c0 := cpuNow()
	for i := 0; i < reps; i++ {
		refSink += refWork()
	}
	return cpuNow() - c0
}

// latRef is a fixed table of records looked up by string key, the way
// the platform looks up applications. It is the reference for per-call
// latencies.
type latRef struct {
	byID  map[string]*refItem
	order []string
}

func newLatRef() *latRef {
	const n = 1 << 14
	l := &latRef{byID: make(map[string]*refItem, n)}
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("app-%07d", i)
		l.byID[id] = &refItem{key: uint64(i), at: float64(i)}
		l.order = append(l.order, id)
	}
	for i := len(l.order) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		l.order[i], l.order[j] = l.order[j], l.order[i]
	}
	return l
}

// p50 returns the median wall time, in ms, of latLookups single
// lookups, each timed the way the benchmark times a call.
func (l *latRef) p50() float64 {
	xs := make([]float64, 0, latLookups)
	var sum float64
	for k := 0; k < latLookups; k++ {
		a := time.Now()
		it := *l.byID[l.order[k*13%len(l.order)]]
		sum += it.at
		xs = append(xs, ms(time.Since(a)))
	}
	refSink += uint64(sum)
	return median(xs)
}

// Host speed. A shared host slows every memory-bound run when
// neighbours load it, by up to about twofold for minutes at a time, in
// CPU time as well as in wall time. The benchmark measures two fixed
// references before the first run and after every run: refWork's CPU
// time, and the median wall time of a single latRef lookup. A run's
// slowdown is the mean of the two timings next to it over a fixed
// nominal time, about the reference's time on a lightly loaded host.
// CPU totals (set-up, throughput, recovery) are divided by the refWork
// slowdown and per-call latencies by the lookup slowdown, each scaled by
// the reference measured the way it is. The host-time metrics then read
// as if on a lightly loaded host, and a change to the program shows
// against a steady baseline; it does not move the references. The
// unscaled figures are printed on the detail line.
const (
	refReps    = 16
	refNominal = refReps * 5500 * time.Microsecond // about its time on a lightly loaded 2-vCPU Xeon VM, GOMAXPROCS=1
	latLookups = 4096
	latNominal = 400e-6 // ms, about the median on a lightly loaded host of that kind
)

// slowdown is the host slowdown around one run.
type slowdown struct{ cpu, lat float64 }

// hostMeter collects reference timings through one invocation.
type hostMeter struct {
	lr           *latRef
	refMS, latMS []float64
}

// sample times both references and returns the host slowdown since the
// previous sample (of this sample alone, the first time).
func (h *hostMeter) sample() slowdown {
	if h.lr == nil {
		h.lr = newLatRef()
	}
	h.refMS = append(h.refMS, ms(refTime(refReps)))
	h.latMS = append(h.latMS, h.lr.p50())
	adjacent := func(xs []float64) float64 {
		n := len(xs)
		if n > 1 {
			return (xs[n-1] + xs[n-2]) / 2
		}
		return xs[n-1]
	}
	return slowdown{cpu: adjacent(h.refMS) / ms(refNominal), lat: adjacent(h.latMS) / latNominal}
}
