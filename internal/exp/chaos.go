package exp

import (
	"meryn/internal/chaos"
	"meryn/internal/cloud"
	"meryn/internal/core"
	"meryn/internal/sim"
	"meryn/internal/stats"
	"meryn/internal/workload"
)

// The chaos experiment runs fault campaigns against the spot-style
// bursting scenario with the invariant auditor armed at a tight
// cadence: correlated site outages, crash bursts, provider-wide spot
// revocation storms and market price shocks, over a campaign-intensity
// x lease-policy grid. Every run that completes has passed the whole
// invariant catalogue at every audit barrier (violations panic), so
// the reported numbers measure degradation — penalties, missed
// deadlines, crash and revocation counts — of a platform that provably
// stayed coherent throughout.

// Chaos campaign intensities.
const (
	ChaosOff   = "off"   // no faults: the baseline the campaigns degrade from
	ChaosLight = "light" // chaos.Light: sparse crashes, one storm, mild shock
	ChaosHeavy = "heavy" // chaos.Heavy: repeated bursts, outages, full sweeps
)

// ChaosScenarioConfig parameterizes one chaos platform run.
type ChaosScenarioConfig struct {
	Seed      int64
	Policy    string // lease policy: "ondemand" or "spot"
	Intensity string // campaign intensity: "off", "light" or "heavy"

	// Observe, when non-nil, receives the armed injector (nil for
	// intensity "off") before the run starts — the meryn-sim demo uses
	// it to report fired-fault tallies afterwards.
	Observe func(*chaos.Injector)
}

// ChaosScenario builds the canonical chaos run: the spot experiment's
// bursting scenario (small private share, arrival waves, market-priced
// cloud) with a fault campaign armed on the engine and the auditor
// checking every 10 simulated seconds.
func ChaosScenario(cfg ChaosScenarioConfig) Scenario {
	if cfg.Policy == "" {
		cfg.Policy = SpotPolicySpot
	}
	if cfg.Intensity == "" {
		cfg.Intensity = ChaosHeavy
	}
	policy, intensity, observe := cfg.Policy, cfg.Intensity, cfg.Observe
	waves := workload.Waves(workload.WaveConfig{
		Waves: 3, PerWave: 5, VC: "vc1", Seed: cfg.Seed,
		Gap:  sim.Seconds(900),
		Work: stats.Normal{Mu: 2400, Sigma: 600, Min: 300},
		VMs:  stats.Constant{V: 2},
	})
	seed := cfg.Seed
	return Scenario{
		Policy:   core.PolicyMeryn,
		Seed:     seed,
		Workload: waves,
		Mutate: func(c *core.Config) {
			c.VCs = []core.VCConfig{{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 8}}
			if policy == SpotPolicySpot {
				c.VCs[0].Spot = &core.SpotPolicy{BidMultiplier: 1.25}
			}
			c.Clouds[0].Market = &cloud.MarketConfig{
				Volatility: 0.15, Reversion: 0.25, Floor: 0.5, Tick: sim.Seconds(30),
			}
			// Tight audit cadence: a campaign event is never more than
			// 10 simulated seconds from a full invariant check.
			c.Audit = &core.AuditConfig{Every: sim.Seconds(10)}
		},
		Setup: func(p *core.Platform) {
			var inj *chaos.Injector
			if intensity != ChaosOff {
				plan := chaos.Light(seed)
				if intensity == ChaosHeavy {
					plan = chaos.Heavy(seed)
				}
				inj = chaos.New(p, plan)
				inj.Arm()
			}
			if observe != nil {
				observe(inj)
			}
		},
	}
}

// ChaosGrid is the stock grid behind `-exp chaos`: campaign intensity x
// lease policy, 3 reps per cell. Any invariant violation during any
// campaign panics the run, so a completed grid is itself the audit pass.
func ChaosGrid() Grid {
	return Grid{
		Name: "chaos", Title: "Chaos", Prefix: "chaos/",
		About: "fault campaigns under the always-on invariant auditor; intensity x lease policy",
		Notes: "every run passed the full invariant catalogue at every audit barrier (violations panic);\n" +
			"crashes = VM crashes absorbed; revocations = attached spot leases preempted; seeds derived per cell+rep",
		Axes: []Axis{
			{Key: "intensity", Doc: "campaign intensity", Values: []any{ChaosOff, ChaosLight, ChaosHeavy}},
			{Key: "policy", Doc: "cloud lease policy", Values: []any{SpotPolicyOnDemand, SpotPolicySpot}},
		},
		Reps: 3,
		Build: func(c Cell, seed int64) Scenario {
			return ChaosScenario(ChaosScenarioConfig{Seed: seed, Intensity: c[0].(string), Policy: c[1].(string)})
		},
		Measures: []Measure{
			{"penalty_units", penalty},
			{"deadlines_missed", missed},
			{"completion_s", completion},
			{"cloud_spend", cloudSpend},
			{"node_crashes", func(r *core.Results, _ *core.Platform) float64 {
				return float64(r.Counters.NodeCrashes.Count)
			}},
			{"revocations", revocations},
			{"audit_checks", func(r *core.Results, _ *core.Platform) float64 { return float64(r.AuditChecks) }},
		},
		Columns: []Column{
			{Header: "intensity", Key: "intensity"},
			{Header: "policy", Key: "policy"},
			{Header: "penalty [u]", Key: "penalty_units"},
			{Header: "missed", Key: "deadlines_missed", Digits: 1, Mean: true},
			{Header: "completion [s]", Key: "completion_s"},
			{Header: "spend [u]", Key: "cloud_spend"},
			{Header: "crashes", Key: "node_crashes", Digits: 1, Mean: true},
			{Header: "revocations", Key: "revocations", Digits: 1, Mean: true},
			{Header: "audits", Key: "audit_checks", Mean: true},
		},
	}
}
