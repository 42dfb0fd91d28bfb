package exp

import (
	"fmt"

	"meryn/internal/core"
	"meryn/internal/framework/serverless"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/stats"
	"meryn/internal/workload"
)

// The serverless experiment exercises the scale-to-zero function
// framework end to end: request-driven functions with on/off load
// (idle gaps long enough to reach zero replicas), cold-start boot
// delays charged against the p95 SLO, concurrency-driven autoscaling,
// and a mid-run canary rollout (deploy a second revision, split 90/10,
// then promote). The grid sweeps idle gap x cold-start cost x
// concurrency target and reports SLO attainment, cold-start and
// activation tallies, scale-to-zero coverage and invocation revenue.

// ServerlessScenarioConfig parameterizes one serverless platform run.
type ServerlessScenarioConfig struct {
	Seed       int64
	ColdStartS float64 // instance boot delay [s] (default 5)
	IdleGapS   float64 // silent gap between active phases [s] (default 240)
	ConcTarget float64 // in-flight requests per instance (default 2)
	Canary     bool    // deploy v2 mid-run, split 90/10, then promote
}

// ServerlessScenario builds the canonical scale-to-zero run: four
// functions with idle-gap traffic and shared bursts in a serverless VC
// beside a light batch stream, on the paper's private pool and cloud.
// With Canary set, every function deploys a "v2" revision at t=900 s,
// splits traffic 90/10 (rev-1/v2) at t=960 s and promotes v2 to 100% at t=1800 s —
// driven through the framework directly, the same calls the control
// plane's journaled deploy-revision/set-traffic routes make.
func ServerlessScenario(cfg ServerlessScenarioConfig) Scenario {
	if cfg.ColdStartS <= 0 {
		cfg.ColdStartS = 5
	}
	if cfg.IdleGapS < 0 {
		cfg.IdleGapS = 0
	}
	if cfg.ConcTarget <= 0 {
		cfg.ConcTarget = 2
	}
	const apps = 4
	fns := workload.Functions(workload.FunctionConfig{
		Apps:         apps,
		VC:           "fn1",
		Seed:         cfg.Seed,
		Interarrival: stats.Constant{V: 60},
		Lifetime:     stats.Constant{V: 2400},
		BaseRate:     stats.Constant{V: 24},
		SvcRate:      stats.Constant{V: 10},
		ColdStart:    stats.Constant{V: cfg.ColdStartS},
		ConcTarget:   cfg.ConcTarget,
		IdleWindow:   stats.Constant{V: 60},
		ActiveS:      stats.Constant{V: 240},
		IdleGapS:     stats.Constant{V: cfg.IdleGapS},
		BurstEvery:   sim.Seconds(900),
		BurstLen:     sim.Seconds(120),
		BurstFactor:  2.5,
		Horizon:      sim.Seconds(3600),
	})
	batchStream := workload.Generate(workload.GenConfig{
		Apps: 10, VC: "vc2", Seed: cfg.Seed + 1,
		Interarrival: stats.Exponential{MeanV: 150},
		Work:         stats.Normal{Mu: 1550, Sigma: 200, Min: 60},
		VMs:          stats.Constant{V: 2},
	})
	canary := cfg.Canary
	return Scenario{
		Policy:   core.PolicyMeryn,
		Seed:     cfg.Seed,
		Workload: workload.Merge(fns, batchStream),
		Mutate: func(c *core.Config) {
			c.VCs = []core.VCConfig{
				{Name: "fn1", Type: workload.TypeServerless, InitialVMs: 24},
				{Name: "vc2", Type: workload.TypeBatch, InitialVMs: 16},
			}
			c.MaxPenaltyFrac = 0.5
			c.Enforcer = &core.ScaleOutEnforcer{BoostVMs: 2, MaxBoosts: 64}
		},
		Setup: func(p *core.Platform) {
			if !canary {
				return
			}
			fw := func() *serverless.Serverless {
				cm, ok := p.CM("fn1")
				if !ok {
					return nil
				}
				s, _ := cm.Framework().(*serverless.Serverless)
				return s
			}
			forEach := func(f func(s *serverless.Serverless, id string)) {
				s := fw()
				if s == nil {
					return
				}
				for i := 0; i < apps; i++ {
					f(s, fmt.Sprintf("fn1-%03d", i))
				}
			}
			// Errors are ignored on purpose: a function that was rejected
			// in negotiation (or already finished) simply sits the canary
			// out, exactly as a failed API call would.
			p.Eng.At(sim.Seconds(900), func() {
				forEach(func(s *serverless.Serverless, id string) { _ = s.DeployRevision(id, "v2") })
			})
			p.Eng.At(sim.Seconds(960), func() {
				forEach(func(s *serverless.Serverless, id string) {
					_ = s.SetTrafficSplit(id, map[string]int{"rev-1": 90, "v2": 10})
				})
			})
			p.Eng.At(sim.Seconds(1800), func() {
				forEach(func(s *serverless.Serverless, id string) {
					_ = s.SetTrafficSplit(id, map[string]int{"v2": 100})
				})
			})
		},
	}
}

// ServerlessGrid is the stock grid behind `-exp serverless`: idle gap x
// cold-start cost x concurrency target, 3 reps per cell. Every run
// carries the canary rollout, so per-revision traffic is part of the
// artifact.
func ServerlessGrid() Grid {
	fn := func(r *core.Results) metrics.Aggregate {
		return metrics.AggregateRecords(r.Ledger.ByType(string(workload.TypeServerless)))
	}
	return Grid{
		Name: "serverless", Title: "Serverless", Prefix: "serverless/",
		About: "scale-to-zero functions + batch stream; idle gap x cold-start cost x concurrency target",
		Notes: "slo attain = clean SLO intervals / evaluated intervals (cold-start delay burns intervals);\n" +
			"activ/ks = scale-from-zero episodes per 1000 simulated seconds; v2 reqs = requests the canary revision served",
		Axes: []Axis{
			{Key: "idle_gap_s", Label: "gap", Doc: "idle gap between active phases [s]", Values: []any{120.0, 360.0}},
			{Key: "cold_start_s", Label: "cold", Doc: "instance boot delay [s]", Values: []any{2.0, 10.0}},
			{Key: "conc_target", Label: "conc", Doc: "concurrency target per instance", Values: []any{1.0, 2.0}},
		},
		Reps: 3,
		Build: func(c Cell, seed int64) Scenario {
			return ServerlessScenario(ServerlessScenarioConfig{
				Seed: seed, IdleGapS: c[0].(float64), ColdStartS: c[1].(float64), ConcTarget: c[2].(float64), Canary: true,
			})
		},
		Measures: []Measure{
			// Clean-interval fraction; cold starts burn intervals.
			{"slo_attainment", func(r *core.Results, _ *core.Platform) float64 { return fn(r).SLOAttainment }},
			{"cold_starts", func(r *core.Results, _ *core.Platform) float64 { return float64(fn(r).ColdStarts) }},
			// Mean boot delay charged per cold start [s].
			{"cold_start_delay_s", func(r *core.Results, _ *core.Platform) float64 {
				if agg := fn(r); agg.ColdStarts > 0 {
					return agg.ColdStartDelayS / float64(agg.ColdStarts)
				}
				return 0
			}},
			// Scale-from-zero episodes.
			{"activations", func(r *core.Results, _ *core.Platform) float64 { return float64(fn(r).Activations) }},
			{"activations_per_ks", func(r *core.Results, _ *core.Platform) float64 {
				if r.CompletionTime > 0 {
					return float64(fn(r).Activations) / r.CompletionTime * 1000
				}
				return 0
			}},
			// Idle windows that reached zero replicas.
			{"zero_scales", func(r *core.Results, _ *core.Platform) float64 { return float64(fn(r).ZeroScales) }},
			{"peak_replicas", func(r *core.Results, _ *core.Platform) float64 {
				return peakReplicas(r, workload.TypeServerless)
			}},
			{"served_requests", func(r *core.Results, _ *core.Platform) float64 { return fn(r).Served }},
			// Pay-per-invocation revenue (cap-bounded).
			{"metered_units", func(r *core.Results, _ *core.Platform) float64 { return fn(r).Metered }},
			{"penalty_units", func(r *core.Results, _ *core.Platform) float64 { return fn(r).TotalPenalty }},
			{"canary_requests_v2", func(_ *core.Results, p *core.Platform) float64 {
				reqs, _ := canaryTally(p)
				return reqs
			}},
			// Cold starts charged to v2 (re-warm flips).
			{"canary_cold_starts", func(_ *core.Results, p *core.Platform) float64 {
				_, cold := canaryTally(p)
				return cold
			}},
			{"batch_missed", func(r *core.Results, _ *core.Platform) float64 {
				return float64(metrics.AggregateRecords(r.Ledger.ByType(string(workload.TypeBatch))).DeadlinesMissed)
			}},
			// Functions throttled at their cost cap.
			{"cost_cap_throttles", func(r *core.Results, _ *core.Platform) float64 {
				return float64(r.Counters.CostCapThrottles.Count)
			}},
		},
		Columns: []Column{
			{Header: "gap [s]", Key: "idle_gap_s"},
			{Header: "cold [s]", Key: "cold_start_s"},
			{Header: "conc", Key: "conc_target"},
			{Header: "slo attain", Key: "slo_attainment", Digits: 3},
			{Header: "cold starts", Key: "cold_starts", Digits: 1},
			{Header: "activ/ks", Key: "activations_per_ks", Digits: 2},
			{Header: "zero scales", Key: "zero_scales", Digits: 1},
			{Header: "peak repl", Key: "peak_replicas", Digits: 1, Mean: true},
			{Header: "metered [u]", Key: "metered_units"},
			{Header: "v2 reqs", Key: "canary_requests_v2", Mean: true},
		},
	}
}

// canaryTally sums the requests and cold starts the canary revision v2
// served across the functions. Revision tallies live on the framework,
// not in Results, and persist past job completion.
func canaryTally(p *core.Platform) (requests, coldStarts float64) {
	cm, ok := p.CM("fn1")
	if !ok {
		return 0, 0
	}
	fw, _ := cm.Framework().(*serverless.Serverless)
	if fw == nil {
		return 0, 0
	}
	for fn := 0; fn < 4; fn++ {
		revs, err := fw.Revisions(fmt.Sprintf("fn1-%03d", fn))
		if err != nil {
			continue
		}
		for _, rv := range revs {
			if rv.Name == "v2" {
				requests += rv.Requests
				coldStarts += float64(rv.ColdStarts)
			}
		}
	}
	return requests, coldStarts
}
