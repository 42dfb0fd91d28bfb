package core

import (
	"fmt"
	"strings"
	"testing"

	"meryn/internal/sim"
	"meryn/internal/vmm"
	"meryn/internal/workload"
)

// TestAuditorOnByDefault: a default config gets a live auditor, and a
// plain Run audits at the default cadence without being asked.
func TestAuditorOnByDefault(t *testing.T) {
	p := newPlatform(t, onevcConfig(4))
	if p.Audit == nil {
		t.Fatal("default platform has no auditor")
	}
	res := run(t, p, workload.Workload{
		batchApp("a1", "vc1", 0, 600),
		batchApp("a2", "vc1", 100, 600),
	})
	if res.AuditChecks == 0 {
		t.Fatal("run completed with zero audit checks")
	}
	if p.Audit.Violations != 0 {
		t.Fatalf("clean run reported %d violations", p.Audit.Violations)
	}
}

// TestAuditorDisabled: opting out leaves no auditor and no checks, and
// AuditNow degrades to a nil no-op.
func TestAuditorDisabled(t *testing.T) {
	cfg := onevcConfig(4)
	cfg.Audit = &AuditConfig{Disabled: true}
	p := newPlatform(t, cfg)
	if p.Audit != nil {
		t.Fatal("disabled config still built an auditor")
	}
	res := run(t, p, workload.Workload{batchApp("a1", "vc1", 0, 600)})
	if res.AuditChecks != 0 {
		t.Fatalf("disabled auditor recorded %d checks", res.AuditChecks)
	}
	if err := p.AuditNow(); err != nil {
		t.Fatalf("AuditNow on disabled auditor: %v", err)
	}
}

// TestAuditNowCleanPlatform: a freshly built platform passes the whole
// catalogue before any workload runs.
func TestAuditNowCleanPlatform(t *testing.T) {
	cfg := onevcConfig(4)
	var got []error
	cfg.Audit = &AuditConfig{OnFail: func(err error) { got = append(got, err) }}
	p := newPlatform(t, cfg)
	if err := p.AuditNow(); err != nil {
		t.Fatalf("fresh platform fails audit: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("OnFail received %d violations on a clean platform", len(got))
	}
	if p.Audit.Checks != 1 {
		t.Fatalf("Checks = %d after one AuditNow", p.Audit.Checks)
	}
}

// TestAuditorDetectsCorruption: hand-corrupting the lease table is
// caught by the node-conservation check and reported through OnFail
// (not the default panic).
func TestAuditorDetectsCorruption(t *testing.T) {
	cfg := onevcConfig(4)
	var got []error
	cfg.Audit = &AuditConfig{OnFail: func(err error) { got = append(got, err) }}
	p := newPlatform(t, cfg)
	cm, _ := p.CM("vc1")

	cm.OwnedPrivate++ // corrupt: one phantom private node
	err := p.AuditNow()
	if err == nil {
		t.Fatal("corrupted OwnedPrivate passed the audit")
	}
	if !strings.Contains(err.Error(), "OwnedPrivate") {
		t.Fatalf("violation does not name the broken invariant: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("OnFail not invoked for the violation")
	}
	if p.Audit.Violations == 0 {
		t.Fatal("Violations counter not incremented")
	}
	cm.OwnedPrivate-- // restore
	if err := p.AuditNow(); err != nil {
		t.Fatalf("restored platform still fails: %v", err)
	}
}

// drainedAuditPlatform runs a small workload to completion on one batch
// VC with a cloud: the first app settles long before the last, a burst
// leases a cloud node, and a private VM crash leaves a crashed VM
// behind its replacement. Violations are collected, not panicked on.
func drainedAuditPlatform(t *testing.T) *Platform {
	t.Helper()
	cfg := DefaultConfig()
	cfg.VCs = []VCConfig{{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 2}}
	cfg.Audit = &AuditConfig{OnFail: func(error) {}}
	p := newPlatform(t, cfg)
	crashFirstRunningVM(t, p, sim.Seconds(2000))
	w := workload.Workload{
		batchApp("a1", "vc1", 0, 600),
		batchApp("a2", "vc1", 700, 1550),
		batchApp("a3", "vc1", 710, 1550),
		batchApp("a4", "vc1", 720, 1550),
	}
	for i := 0; i < 20; i++ {
		w = append(w, batchApp(fmt.Sprintf("late-%d", i), "vc1", float64(4000+300*i), 200))
	}
	run(t, p, w)
	if err := p.AuditNow(); err != nil {
		t.Fatalf("drained platform fails audit before corruption: %v", err)
	}
	return p
}

// attachIdleCloudNode leases one cloud node into vc1 and steps the
// engine until it is attached, returning its ID.
func attachIdleCloudNode(t *testing.T, p *Platform) string {
	t.Helper()
	cm, _ := p.CM("vc1")
	cm.BoostWithCloud(1)
	for len(cloudNodeIDs(cm)) == 0 {
		if !p.Eng.Step() {
			t.Fatal("cloud boost never attached")
		}
	}
	return cloudNodeIDs(cm)[0]
}

// TestAuditorCorruptionCatalogue corrupts one catalogue entry at a time
// on a drained platform; AuditNow must name the broken invariant. The
// settled-app and settled-record cases need the walk over the whole
// admission history, not just live applications.
func TestAuditorCorruptionCatalogue(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, p *Platform)
		want    string
	}{
		{"negative open-segment rate", func(t *testing.T, p *Platform) {
			cm, _ := p.CM("vc1")
			st := cm.apps["late-7"]
			st.segOpen, st.segRate = true, -1
		}, "open segment with negative rate"},
		{"bumped PrivateUsed gauge", func(t *testing.T, p *Platform) {
			p.PrivateUsed.Add(p.Eng.Now(), 1)
		}, "PrivateUsed gauge 1 != 0"},
		{"attached VM crashed without release", func(t *testing.T, p *Platform) {
			cm, _ := p.CM("vc1")
			for id, info := range cm.nodes {
				if !info.cloud {
					vm, err := p.VMM.Get(id)
					if err != nil {
						t.Fatal(err)
					}
					vm.State = vmm.StateCrashed
					return
				}
			}
			t.Fatal("no attached private node")
		}, "is crashed"},
		{"changed cloud-node rate", func(t *testing.T, p *Platform) {
			id := attachIdleCloudNode(t, p)
			if err := p.AuditNow(); err != nil {
				t.Fatalf("boosted platform fails audit: %v", err)
			}
			cm, _ := p.CM("vc1")
			cm.nodes[id].rate *= 2
		}, "lease price locked at"},
		{"counter decreased", func(t *testing.T, p *Platform) {
			if p.Counters.CloudLeases.Count == 0 {
				t.Fatal("workload leased no cloud node")
			}
			p.Counters.CloudLeases.Count--
		}, "decreased"},
		{"VM running without active++", func(t *testing.T, p *Platform) {
			vms := p.VMM.List(vmm.StateCrashed)
			if len(vms) == 0 {
				t.Fatal("no crashed VM")
			}
			vms[0].State = vmm.StateRunning
		}, "vmm: active="},
		{"settled app's segment reopened with nodes", func(t *testing.T, p *Platform) {
			cm, _ := p.CM("vc1")
			st := cm.apps["a1"]
			st.segOpen, st.segPrivateN = true, 1
		}, "PrivateUsed gauge 0 != 1 private nodes across open segments"},
		{"settled record's cost lowered", func(t *testing.T, p *Platform) {
			rec := p.Ledger.Get("a1")
			if rec.Cost <= 0 {
				t.Fatalf("a1 cost = %g, want > 0", rec.Cost)
			}
			rec.Cost /= 2
		}, "app a1: cost decreased"},
		{"node dropped from lease table but left in node list", func(t *testing.T, p *Platform) {
			cm, _ := p.CM("vc1")
			if len(cm.nodeList) == 0 {
				t.Fatal("no attached node")
			}
			delete(cm.nodes, cm.nodeList[0].id)
		}, "in node list but not in CM lease table"},
		{"node in lease table but missing from node list", func(t *testing.T, p *Platform) {
			cm, _ := p.CM("vc1")
			if len(cm.nodeList) == 0 {
				t.Fatal("no attached node")
			}
			cm.nodeList = cm.nodeList[:len(cm.nodeList)-1]
		}, "node list holds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := drainedAuditPlatform(t)
			tc.corrupt(t, p)
			err := p.AuditNow()
			if err == nil {
				t.Fatal("corruption passed the audit")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("violation does not name the broken invariant %q: %v", tc.want, err)
			}
		})
	}
}

// TestAuditNowAllocsFlatInHistory: a clean audit allocates the same
// after 50 and after 500 settled apps — the walk over the admission
// history reuses the auditor's buffers instead of allocating per app.
func TestAuditNowAllocsFlatInHistory(t *testing.T) {
	allocs := func(n int) float64 {
		p := settledPlatform(t, n, 10)
		for i := 0; i < 2; i++ { // size the snapshot buffers
			if err := p.AuditNow(); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if err := p.AuditNow(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a50, a500 := allocs(50), allocs(500); a50 != a500 {
		t.Fatalf("AuditNow allocates %v times after 50 settled apps but %v after 500", a50, a500)
	}
}

// TestAuditorNeverKeepsEngineAlive: with work done and the queue empty
// the audit timer must not re-arm — otherwise event-exhaustion drivers
// would spin on self-renewing audit events forever.
func TestAuditorNeverKeepsEngineAlive(t *testing.T) {
	cfg := onevcConfig(2)
	cfg.Audit = &AuditConfig{Every: sim.Seconds(5)}
	p := newPlatform(t, cfg)
	s, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitWith(batchApp("a1", "vc1", 0, 300), nil); err != nil {
		t.Fatal(err)
	}
	if !s.RunToSettle() {
		t.Fatal("workload did not settle")
	}
	// The engine must run dry: a live audit timer would make this loop
	// (and any RunAll-style driver) spin forever.
	for i := 0; p.Eng.Step(); i++ {
		if i > 10000 {
			t.Fatal("engine never drains; audit timer keeps re-arming")
		}
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditConfigValidation: a negative cadence is rejected, zero gets
// the default.
func TestAuditConfigValidation(t *testing.T) {
	cfg := onevcConfig(2)
	cfg.Audit = &AuditConfig{Every: -sim.Seconds(1)}
	if _, err := NewPlatform(cfg); err == nil {
		t.Fatal("negative audit interval accepted")
	}
	cfg = onevcConfig(2)
	p := newPlatform(t, cfg)
	if p.Audit.every != sim.Seconds(defaultAuditEveryS) {
		t.Fatalf("default cadence = %s", p.Audit.every)
	}
}
