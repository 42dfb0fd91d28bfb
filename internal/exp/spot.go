package exp

import (
	"meryn/internal/cloud"
	"meryn/internal/core"
	"meryn/internal/sim"
	"meryn/internal/stats"
	"meryn/internal/workload"
)

// The spot experiment exercises preemptible cloud capacity end to end:
// a small batch VC is hit by synchronized arrival waves that overflow
// the private pool, forcing Algorithm 1 to the cloud, whose market
// prices move with configurable volatility. The grid sweeps bid
// multiplier x volatility x lease policy and reports SLA penalties,
// cloud and spot spend, revocation counts and on-demand fallbacks per
// cell — the cost/risk frontier of bidding on the market instead of
// paying the posted price.

// Lease policies for the spot experiment.
const (
	// SpotPolicyOnDemand leases posted-price capacity only (no
	// revocation risk; the baseline).
	SpotPolicyOnDemand = "ondemand"
	// SpotPolicySpot bids on the market: cheaper in expectation, but
	// leases are revoked when the market crosses the bid and the lost
	// work requeues onto replacement capacity.
	SpotPolicySpot = "spot"
)

// SpotScenarioConfig parameterizes one spot-market platform run.
type SpotScenarioConfig struct {
	Seed    int64
	Policy  string  // lease policy: "ondemand" or "spot"
	BidMult float64 // spot bid as a multiple of the current quote
	Vol     float64 // market volatility (fraction of base price per tick)
}

// SpotScenario builds the canonical preemptible-capacity run: one batch
// VC with a deliberately small private share, arrival waves that burst
// well past it, and a market-priced cloud.
func SpotScenario(cfg SpotScenarioConfig) Scenario {
	if cfg.Policy == "" {
		cfg.Policy = SpotPolicySpot
	}
	if cfg.BidMult <= 0 {
		cfg.BidMult = 1.25
	}
	if cfg.Vol < 0 {
		cfg.Vol = 0
	}
	policy, bidMult, vol := cfg.Policy, cfg.BidMult, cfg.Vol
	waves := workload.Waves(workload.WaveConfig{
		Waves: 3, PerWave: 5, VC: "vc1", Seed: cfg.Seed,
		Gap:  sim.Seconds(900),
		Work: stats.Normal{Mu: 2400, Sigma: 600, Min: 300},
		VMs:  stats.Constant{V: 2},
	})
	return Scenario{
		Policy:   core.PolicyMeryn,
		Seed:     cfg.Seed,
		Workload: waves,
		Mutate: func(c *core.Config) {
			c.VCs = []core.VCConfig{{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 8}}
			if policy == SpotPolicySpot {
				c.VCs[0].Spot = &core.SpotPolicy{BidMultiplier: bidMult}
			}
			if vol > 0 {
				c.Clouds[0].Market = &cloud.MarketConfig{
					Volatility: vol, Reversion: 0.25, Floor: 0.5, Tick: sim.Seconds(30),
				}
			}
		},
	}
}

// SpotGrid is the stock grid behind `-exp spot`: lease policy x market
// volatility x bid multiplier, 3 reps per cell. The on-demand baseline
// has no bid dimension (one cell per volatility).
func SpotGrid() Grid {
	return Grid{
		Name: "spot", Title: "Spot", Prefix: "spot/",
		About: "preemptible cloud capacity; lease policy x market volatility x bid multiplier",
		Notes: "revocations = attached spot leases preempted when the market crossed their bid;\n" +
			"fallbacks = lease decisions forced from spot to on-demand; seeds derived per cell+rep",
		Axes: []Axis{
			{Key: "policy", Doc: "cloud lease policy", Values: []any{SpotPolicyOnDemand, SpotPolicySpot}},
			{Key: "volatility", Label: "vol", Doc: "market volatility per price tick", Values: []any{0.05, 0.2}},
			{Key: "bid_mult", Label: "bid", Doc: "spot bid as a multiple of the quote (spot policy only)",
				Values: []any{1.1, 1.6}, Only: func(c Cell) bool { return c[0] == SpotPolicySpot }},
		},
		Reps: 3,
		Build: func(c Cell, seed int64) Scenario {
			return SpotScenario(SpotScenarioConfig{
				Seed: seed, Policy: c[0].(string), Vol: c[1].(float64), BidMult: c[2].(float64),
			})
		},
		Measures: []Measure{
			{"penalty_units", penalty},
			{"cloud_spend", cloudSpend},
			{"spot_spend", func(r *core.Results, _ *core.Platform) float64 { return r.SpotSpend }},
			{"revocations", revocations},
			{"spot_fallbacks", func(r *core.Results, _ *core.Platform) float64 {
				return float64(r.Counters.SpotFallbacks.Count)
			}},
			{"deadlines_missed", missed},
			{"completion_s", completion},
		},
		Columns: []Column{
			{Header: "policy", Key: "policy"},
			{Header: "vol", Key: "volatility"},
			{Header: "bid", Key: "bid_mult", Zero: "-"},
			{Header: "penalty [u]", Key: "penalty_units"},
			{Header: "spend [u]", Key: "cloud_spend"},
			{Header: "spot [u]", Key: "spot_spend"},
			{Header: "revocations", Key: "revocations", Digits: 1, Mean: true},
			{Header: "fallbacks", Key: "spot_fallbacks", Digits: 1, Mean: true},
			{Header: "missed", Key: "deadlines_missed", Digits: 1, Mean: true},
		},
	}
}
