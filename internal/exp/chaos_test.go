package exp

import (
	"bytes"
	"strings"
	"testing"

	"meryn/internal/chaos"
	"meryn/internal/core"
)

// smallChaosMatrix is the CI-sized grid: off vs heavy, spot policy
// only, two reps.
func smallChaosMatrix() Grid {
	g := ChaosGrid()
	g.Name = "chaos-smoke"
	g.Set("intensity", ChaosOff, ChaosHeavy)
	g.Set("policy", SpotPolicySpot)
	g.Reps = 2
	g.BaseSeed = 1
	return g
}

// TestChaosJSONWorkerInvariance: campaigns and audits draw only from
// their own named RNG streams, so the grid JSON is byte-identical
// whatever the worker count.
func TestChaosJSONWorkerInvariance(t *testing.T) {
	m := smallChaosMatrix()
	r1, err := m.Run(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := m.Run(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j4, err := r4.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j4) {
		t.Fatal("chaos grid JSON differs across worker counts")
	}
}

// TestChaosGridShape: the grid expands intensity-major, every run is
// audited, and the heavy campaign actually degrades the platform
// relative to the fault-free baseline.
func TestChaosGridShape(t *testing.T) {
	res, err := smallChaosMatrix().Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 || res.Runs != 4 {
		t.Fatalf("cells = %d runs = %d, want 2/4", len(res.Cells), res.Runs)
	}
	off, heavy := res.Cells[0], res.Cells[1]
	if off.Value("intensity") != ChaosOff || heavy.Value("intensity") != ChaosHeavy {
		t.Fatalf("cell order: %s/%s", off.Value("intensity"), heavy.Value("intensity"))
	}
	if off.Metric("node_crashes").Mean != 0 {
		t.Fatalf("fault-free baseline crashed %g VMs", off.Metric("node_crashes").Mean)
	}
	if heavy.Metric("node_crashes").Mean == 0 {
		t.Fatal("heavy campaign crashed nothing")
	}
	// Every cell ran under the 10 s audit cadence.
	if off.Metric("audit_checks").Mean == 0 || heavy.Metric("audit_checks").Mean == 0 {
		t.Fatalf("audit checks: off=%g heavy=%g", off.Metric("audit_checks").Mean, heavy.Metric("audit_checks").Mean)
	}
	if !strings.Contains(res.Render(), "revocations") {
		t.Fatal("render malformed")
	}
}

// TestChaosScenarioObserve: the Observe hook surfaces the armed
// injector with live tallies (and nil for the fault-free baseline),
// and every application settles even under the heavy campaign.
func TestChaosScenarioObserve(t *testing.T) {
	var inj *chaos.Injector
	res, err := ChaosScenario(ChaosScenarioConfig{
		Seed: 2, Intensity: ChaosHeavy,
		Observe: func(i *chaos.Injector) { inj = i },
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if inj == nil {
		t.Fatal("Observe never received the injector")
	}
	if inj.Crashes == 0 {
		t.Fatal("heavy campaign fired no crashes")
	}
	for _, rec := range res.Ledger.All() {
		if rec.EndTime == 0 {
			t.Fatalf("app %s never settled under the campaign", rec.ID)
		}
	}

	called := false
	ChaosScenario(ChaosScenarioConfig{
		Seed: 2, Intensity: ChaosOff,
		Observe: func(i *chaos.Injector) {
			called = true
			if i != nil {
				t.Fatal("fault-free baseline still built an injector")
			}
		},
	}).Setup(mustPlatform(t))
	if !called {
		t.Fatal("Observe not called for the baseline")
	}
}

// mustPlatform builds a default platform for Setup-hook tests.
func mustPlatform(t *testing.T) *core.Platform {
	t.Helper()
	p, err := core.NewPlatform(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}
