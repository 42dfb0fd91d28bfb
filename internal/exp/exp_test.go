package exp

import (
	"strings"
	"sync/atomic"
	"testing"

	"meryn/internal/core"
)

// TestPoolRunsAll: the pool visits every index at an explicit and at
// the default worker bound, and never calls fn for an empty range.
func TestPoolRunsAll(t *testing.T) {
	var count int64
	each := func(n, workers int, fn func(i int)) {
		if err := (Pool{Workers: workers}).Each(n, func(i int) error { fn(i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	each(100, 8, func(i int) { atomic.AddInt64(&count, 1) })
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
	count = 0
	each(3, 0, func(i int) { atomic.AddInt64(&count, 1) }) // default workers
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
	each(0, 4, func(i int) { t.Fatal("fn called for n=0") })
}

func TestScenarioDefaultsToPaperWorkload(t *testing.T) {
	res, err := Scenario{Seed: 5}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ledger.All()) != 65 {
		t.Fatalf("apps = %d, want 65", len(res.Ledger.All()))
	}
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	res, err := Table1(6, 11, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	// Every measured mean must land within (or very near) the paper
	// range, and case ordering must hold: local < local+susp < vc <
	// cloud, vc < vc+susp.
	means := map[string]float64{}
	for _, row := range res.Rows {
		if row.Measured.N() != 6 {
			t.Fatalf("case %q has %d samples", row.Case, row.Measured.N())
		}
		means[row.Case] = row.Measured.Mean()
		// Tolerance: the calibration targets the range midpoints; allow
		// the measured band to exceed the paper's by up to 6 s per side.
		if row.Measured.Min() < row.PaperLo-6 || row.Measured.Max() > row.PaperHi+13 {
			t.Fatalf("case %q measured %.1f~%.1f vs paper %.0f~%.0f",
				row.Case, row.Measured.Min(), row.Measured.Max(), row.PaperLo, row.PaperHi)
		}
	}
	if !(means["local-vm"] < means["local-vm after suspension"]) {
		t.Fatal("suspension must add local processing time")
	}
	if !(means["local-vm after suspension"] < means["vc-vm"]) {
		t.Fatal("vc transfer must dominate local suspension")
	}
	if !(means["vc-vm"] < means["vc-vm after suspension"]) {
		t.Fatal("remote suspension must add vc processing time")
	}
	if !(means["vc-vm"] < means["cloud-vm"]) {
		t.Fatal("cloud provisioning must dominate vc transfer")
	}
	out := res.Render()
	if !strings.Contains(out, "local-vm") || !strings.Contains(out, "Paper [s]") {
		t.Fatalf("render output malformed:\n%s", out)
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	res, err := Fig5(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakCloudMeryn() != 15 {
		t.Fatalf("meryn peak cloud = %d, want 15", res.PeakCloudMeryn())
	}
	if res.PeakCloudStatic() != 25 {
		t.Fatalf("static peak cloud = %d, want 25", res.PeakCloudStatic())
	}
	out := res.Render()
	for _, want := range []string{"Figure 5(a)", "Figure 5(b)", "Private VMs", "Cloud VMs", "peak cloud"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestFig6ShapeMatchesPaper(t *testing.T) {
	res, err := Fig6(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CostSavingPct < 8 || res.CostSavingPct > 20 {
		t.Fatalf("cost saving = %.2f%%, want ~14%%", res.CostSavingPct)
	}
	if res.VC1CostSavingPct < 10 || res.VC1CostSavingPct > 25 {
		t.Fatalf("VC1 cost saving = %.2f%%, want ~17%%", res.VC1CostSavingPct)
	}
	if res.ExecSavingPct <= 0 {
		t.Fatalf("exec saving = %.2f%%, want > 0", res.ExecSavingPct)
	}
	// VC2 groups must be near-identical across policies.
	var vc2 Fig6Group
	for _, g := range res.Cost {
		if g.Name == "VC2 applis" {
			vc2 = g
		}
	}
	if diff := vc2.MerynValue - vc2.StaticValue; diff < -20 || diff > 20 {
		t.Fatalf("VC2 costs diverge: %+v", vc2)
	}
	out := res.Render()
	for _, want := range []string{"Figure 6(a)", "Figure 6(b)", "cost saving"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestAblationPenaltyNMonotone(t *testing.T) {
	res, err := AblationPenaltyN(7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for i := 1; i < len(res.Points); i++ {
		prev, cur := res.Points[i-1], res.Points[i]
		if cur.N <= prev.N {
			t.Fatal("N sweep not increasing")
		}
		if cur.TotalPenalty >= prev.TotalPenalty {
			t.Fatalf("penalty not decreasing with N: %v then %v", prev.TotalPenalty, cur.TotalPenalty)
		}
		if cur.Revenue <= prev.Revenue {
			t.Fatalf("revenue not increasing with N: %v then %v", prev.Revenue, cur.Revenue)
		}
	}
	for _, p := range res.Points {
		if p.Missed == 0 {
			t.Fatal("ablation scenario must miss deadlines")
		}
	}
	if !strings.Contains(res.Render(), "Ablation A1") {
		t.Fatal("render malformed")
	}
}

func TestAblationBillingShiftsDecisions(t *testing.T) {
	res, err := AblationBilling(7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	perSec, perHour := res.Points[0], res.Points[1]
	if perSec.Billing != "per-second" || perHour.Billing != "per-hour" {
		t.Fatalf("billing order: %+v", res.Points)
	}
	// Per-hour round-up makes the cloud look expensive: fewer leases,
	// more suspensions/exchanges.
	if perHour.CloudLeases >= perSec.CloudLeases {
		t.Fatalf("per-hour leases %d >= per-second %d", perHour.CloudLeases, perSec.CloudLeases)
	}
	if perHour.Suspensions == 0 {
		t.Fatal("per-hour billing should push Algorithm 1 toward suspension")
	}
	if !strings.Contains(res.Render(), "Ablation A2") {
		t.Fatal("render malformed")
	}
}

func TestAblationPoliciesGapGrowsWithLoad(t *testing.T) {
	res, err := AblationPolicies(7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Index points by (load, policy).
	cost := map[int]map[string]float64{}
	for _, p := range res.Points {
		if cost[p.VC1Apps] == nil {
			cost[p.VC1Apps] = map[string]float64{}
		}
		cost[p.VC1Apps][p.Policy] = p.TotalCost
	}
	// At 25 VC1 apps nothing overflows: equal cost.
	if low := cost[25]; low["meryn"] != low["static"] {
		t.Fatalf("low load costs differ: %v", low)
	}
	// At 50 and 65, Meryn must be cheaper.
	for _, load := range []int{50, 65} {
		c := cost[load]
		if c["meryn"] >= c["static"] {
			t.Fatalf("load %d: meryn %v >= static %v", load, c["meryn"], c["static"])
		}
	}
	if !strings.Contains(res.Render(), "Ablation A3") {
		t.Fatal("render malformed")
	}
}

func TestAblationMarketRuns(t *testing.T) {
	res, err := AblationMarket(7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].CloudSpend <= 0 {
		t.Fatal("baseline run had no cloud spend")
	}
	for _, p := range res.Points {
		if p.CloudLeases == 0 && p.Suspensions == 0 {
			t.Fatalf("volatility %v: no elasticity at all", p.Volatility)
		}
	}
	if !strings.Contains(res.Render(), "Ablation A4") {
		t.Fatal("render malformed")
	}
}

func TestAblationSuspensionValue(t *testing.T) {
	res, err := AblationSuspension(7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withSusp, withoutSusp := res.Points[0], res.Points[1]
	if !withSusp.Suspension || withoutSusp.Suspension {
		t.Fatalf("point order: %+v", res.Points)
	}
	if withSusp.Suspensions == 0 {
		t.Fatal("suspension-enabled run never suspended")
	}
	if withoutSusp.Suspensions != 0 {
		t.Fatal("suspension-disabled run suspended")
	}
	if withSusp.TotalCost >= withoutSusp.TotalCost {
		t.Fatalf("suspension cost %v >= cloud cost %v (should be cheaper)",
			withSusp.TotalCost, withoutSusp.TotalCost)
	}
	if withSusp.Missed != 0 {
		t.Fatalf("suspension run missed %d deadlines (slack should absorb)", withSusp.Missed)
	}
	if !strings.Contains(res.Render(), "Ablation A5") {
		t.Fatal("render malformed")
	}
}

func TestAblationRealisticMerynWins(t *testing.T) {
	res, err := AblationRealistic(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d", len(res.Points))
	}
	cost := map[string]map[string]float64{}
	cloud := map[string]map[string]int{}
	for _, p := range res.Points {
		if cost[p.Family] == nil {
			cost[p.Family] = map[string]float64{}
			cloud[p.Family] = map[string]int{}
		}
		cost[p.Family][p.Policy] = p.TotalCost
		cloud[p.Family][p.Policy] = p.PeakCloud
		if p.Apps != 75 {
			t.Fatalf("%s/%s apps = %d", p.Family, p.Policy, p.Apps)
		}
	}
	for _, fam := range []string{"poisson", "bursty", "heavy"} {
		if cost[fam]["meryn"] > cost[fam]["static"] {
			t.Fatalf("%s: meryn cost %v > static %v", fam, cost[fam]["meryn"], cost[fam]["static"])
		}
		if cloud[fam]["meryn"] > cloud[fam]["static"] {
			t.Fatalf("%s: meryn peak cloud %d > static %d", fam, cloud[fam]["meryn"], cloud[fam]["static"])
		}
	}
	if !strings.Contains(res.Render(), "Realistic workloads") {
		t.Fatal("render malformed")
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("experiments = %d", len(all))
	}
	if _, ok := Find("serverless"); !ok {
		t.Fatal("serverless not found")
	}
	if _, ok := Find("scale"); !ok {
		t.Fatal("scale not found")
	}
	if _, ok := Find("fig5"); !ok {
		t.Fatal("fig5 not found")
	}
	if _, ok := Find("spot"); !ok {
		t.Fatal("spot not found")
	}
	if _, ok := Find("chaos"); !ok {
		t.Fatal("chaos not found")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("found nonexistent experiment")
	}
	for _, e := range all {
		if e.Name == "" || e.Artifact == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
	}
}

// TestScenarioMutateIsolation: scenarios must not leak state between runs
// (each Run builds a fresh platform).
func TestScenarioMutateIsolation(t *testing.T) {
	s := Scenario{Seed: 9, Policy: core.PolicyMeryn}
	a, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.CompletionTime != b.CompletionTime {
		t.Fatalf("same scenario diverged: %v vs %v", a.CompletionTime, b.CompletionTime)
	}
	if a.Counters.CloudLeases.Count != b.Counters.CloudLeases.Count {
		t.Fatal("same scenario diverged in lease count")
	}
}
