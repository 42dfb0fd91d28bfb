package exp

import (
	"bytes"
	"strings"
	"testing"
)

// smallSpotMatrix is the CI-sized grid: one volatility, one bid, both
// policies, two reps.
func smallSpotMatrix() Grid {
	g := SpotGrid()
	g.Name = "spot-smoke"
	g.Set("policy", SpotPolicyOnDemand, SpotPolicySpot)
	g.Set("volatility", 0.2)
	g.Set("bid_mult", 1.1)
	g.Reps = 2
	g.BaseSeed = 1
	return g
}

// TestSpotJSONWorkerInvariance is the harness determinism guarantee
// extended to the spot grid: byte-identical JSON whatever the worker
// count, even though revocation timing depends on market evolution.
func TestSpotJSONWorkerInvariance(t *testing.T) {
	m := smallSpotMatrix()
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
		t.Fatal("spot sweep JSON differs across worker counts")
	}
}

func TestSpotGridShape(t *testing.T) {
	res, err := smallSpotMatrix().Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// ondemand collapses the bid dimension: 1 cell + 1 spot cell.
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	if res.Runs != 4 {
		t.Fatalf("runs = %d, want 4", res.Runs)
	}
	od, sp := res.Cells[0], res.Cells[1]
	if od.Value("policy") != SpotPolicyOnDemand || sp.Value("policy") != SpotPolicySpot {
		t.Fatalf("cell order: %s/%s", od.Value("policy"), sp.Value("policy"))
	}
	// The baseline never touches the spot market.
	if od.Metric("spot_spend").Mean != 0 || od.Metric("revocations").Mean != 0 {
		t.Fatalf("on-demand cell has spot activity: %+v", od)
	}
	// The aggressive spot cell (bid 1.1x under 0.2 volatility) must see
	// the defining risk: revocations, and spot spend from settled
	// partial charges.
	if sp.Metric("revocations").Mean == 0 {
		t.Fatal("no revocations in the aggressive spot cell")
	}
	if sp.Metric("spot_spend").Mean <= 0 {
		t.Fatal("no spot spend settled")
	}
	if !strings.Contains(res.Render(), "revocations") {
		t.Fatal("render malformed")
	}
}

// TestSpotScenarioCompletes: every application in a revocation-heavy
// run still settles (spot retry or on-demand fallback).
func TestSpotScenarioCompletes(t *testing.T) {
	res, err := SpotScenario(SpotScenarioConfig{
		Seed: 3, Policy: SpotPolicySpot, BidMult: 1.05, Vol: 0.25,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Ledger.All() {
		if rec.EndTime == 0 {
			t.Fatalf("app %s never completed (revocations=%d)",
				rec.ID, res.Counters.SpotRevocations.Count)
		}
	}
}
