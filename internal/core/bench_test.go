package core

import (
	"fmt"
	"testing"

	"meryn/internal/sim"
	"meryn/internal/workload"
)

// benchPlatform builds a single-VC cloudless platform with vms private
// VMs, submits the workload and steps the engine until every submitted
// application is running, returning the VC's Cluster Manager.
func benchPlatform(b *testing.B, vms int, w workload.Workload) (*Platform, *ClusterManager) {
	b.Helper()
	p, err := NewPlatform(onevcConfig(vms))
	if err != nil {
		b.Fatal(err)
	}
	for i := range w {
		app := w[i]
		p.Eng.At(app.SubmitAt, func() { p.Client.Submit(app) })
	}
	cm, _ := p.CM("vc1")
	for len(cm.fw.Running()) < len(w) && p.Eng.Step() {
	}
	if got := len(cm.fw.Running()); got != len(w) {
		b.Fatalf("running = %d, want %d", got, len(w))
	}
	return p, cm
}

// BenchmarkComputeBid measures Algorithm 2 over a VC saturated with 25
// running single-VM applications — the per-bid cost paid by every peer
// on every bid round (protocol.go).
func BenchmarkComputeBid(b *testing.B) {
	w := make(workload.Workload, 25)
	for i := range w {
		w[i] = batchApp(fmt.Sprintf("app-%d", i), "vc1", 0, 1e7)
	}
	_, cm := benchPlatform(b, 25, w)
	duration := sim.Seconds(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bid := cm.ComputeBid(1, duration)
		if !bid.OK {
			b.Fatal("expected a suspension bid")
		}
	}
}

// BenchmarkSegmentCycle measures one usage/cost segment open + close for
// an 8-VM application — the accounting path hit on every job start,
// suspension, requeue and finish.
func BenchmarkSegmentCycle(b *testing.B) {
	app := workload.App{
		ID: "big", Type: workload.TypeBatch, VC: "vc1",
		SubmitAt: 0, VMs: 8, Work: 1e7,
	}
	_, cm := benchPlatform(b, 8, workload.Workload{app})
	st := cm.apps["big"]
	if st == nil || st.job == nil {
		b.Fatal("app not dispatched")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.onJobStart(st.job)
		cm.closeSegment(st)
	}
}

// benchAuditRun measures a complete platform run — 20 batch apps over
// a 10-VM VC — with the invariant auditor at a tight 10 s cadence or
// disabled, so the pair brackets the auditor's whole-run overhead
// (recorded in BENCH_chaos.json).
func benchAuditRun(b *testing.B, disabled bool) {
	w := make(workload.Workload, 20)
	for i := range w {
		w[i] = batchApp(fmt.Sprintf("app-%d", i), "vc1", float64(i*30), 1550)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := onevcConfig(10)
		cfg.Audit = &AuditConfig{Every: sim.Seconds(10), Disabled: disabled}
		p, err := NewPlatform(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlatformRunAuditOn(b *testing.B)  { benchAuditRun(b, false) }
func BenchmarkPlatformRunAuditOff(b *testing.B) { benchAuditRun(b, true) }

// settledPlatform runs n short batch apps, staggered a minute apart,
// through a VC of vms VMs under the default auditor and returns the
// drained platform: a long admission history with nothing left running.
// The private site grows to host the VC when vms exceeds its default
// capacity.
func settledPlatform(tb testing.TB, n, vms int) *Platform {
	tb.Helper()
	w := make(workload.Workload, n)
	for i := range w {
		w[i] = batchApp(fmt.Sprintf("app-%d", i), "vc1", float64(60*i), 300)
	}
	cfg := onevcConfig(vms)
	if vms > cfg.PrivateVMCap {
		cfg.PrivateVMCap = vms
		cfg.Site.Nodes = (vms + 5) / 6 // six default-shape VMs per node
	}
	p, err := NewPlatform(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := p.Run(w); err != nil {
		tb.Fatal(err)
	}
	if got := len(p.Ledger.All()); got != n {
		tb.Fatalf("ledger holds %d apps, want %d", got, n)
	}
	return p
}

// BenchmarkAuditNow measures one audit of a drained platform after 100,
// 1,000 and 10,000 settled apps on a 10-VM VC, and after 1,000 on a
// 100-VM VC (recorded in BENCH_chaos.json): the cost every audit pays
// for the admission history and the attached nodes it walks.
func BenchmarkAuditNow(b *testing.B) {
	for _, c := range []struct{ settled, vms int }{{100, 10}, {1000, 10}, {10000, 10}, {1000, 100}} {
		name := fmt.Sprintf("settled=%d", c.settled)
		if c.vms != 10 {
			name += fmt.Sprintf("/nodes=%d", c.vms)
		}
		b.Run(name, func(b *testing.B) {
			p := settledPlatform(b, c.settled, c.vms)
			if cm, _ := p.CM("vc1"); len(cm.nodes) != c.vms {
				b.Fatalf("vc1 holds %d nodes, want %d", len(cm.nodes), c.vms)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.AuditNow(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFreePrivateCount measures the idle-private-VM count used by
// the VM exchange protocol (acquireFromVC, processLoanReturns) on a VC
// with 25 idle nodes.
func BenchmarkFreePrivateCount(b *testing.B) {
	_, cm := benchPlatform(b, 25, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := cm.freePrivateCount(); n != 25 {
			b.Fatalf("free private = %d, want 25", n)
		}
	}
}
