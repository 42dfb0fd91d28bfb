package exp

import (
	"meryn/internal/core"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/stats"
	"meryn/internal/workload"
)

// The services experiment exercises the elastic long-running-service
// framework end to end: a service VC and a batch VC share the private
// pool, services negotiate latency SLOs and scale with diurnal/bursty
// offered load, batch deadline work arrives beside them, and the grid
// sweeps offered load x replica policy x burst amplitude, reporting SLO
// attainment, cost, penalties and the cloud-burst fraction per cell.

// Replica policies for the services experiment.
const (
	// ReplicaPolicyNoop leaves SLO pressure to VC-local elasticity:
	// services grow only onto nodes already attached to their VC.
	ReplicaPolicyNoop = "noop"
	// ReplicaPolicyScaleOut reacts to projected SLO burn by leasing
	// cloud VMs for the VC (the ScaleOutEnforcer).
	ReplicaPolicyScaleOut = "scaleout"
)

// ServiceScenarioConfig parameterizes one service-workload platform run.
type ServiceScenarioConfig struct {
	Seed     int64
	Policy   string  // replica policy: "noop" or "scaleout"
	LoadMult float64 // base-rate multiplier (1 = nominal)
	BurstAmp float64 // burst rate factor (1 = no bursts)
}

// ServiceScenario builds the canonical elastic-services run: four
// long-running services (latency SLOs, diurnal load with superimposed
// bursts) in a service VC beside a light batch stream in a batch VC,
// both on the paper's private pool and cloud.
func ServiceScenario(cfg ServiceScenarioConfig) Scenario {
	if cfg.LoadMult <= 0 {
		cfg.LoadMult = 1
	}
	if cfg.BurstAmp <= 0 {
		cfg.BurstAmp = 1
	}
	if cfg.Policy == "" {
		cfg.Policy = ReplicaPolicyScaleOut
	}
	policy := cfg.Policy
	services := workload.Services(workload.ServiceConfig{
		Apps:         4,
		VC:           "svc1",
		Seed:         cfg.Seed,
		Interarrival: stats.Constant{V: 120},
		Lifetime:     stats.Constant{V: 2400},
		BaseRate:     stats.Constant{V: 30 * cfg.LoadMult},
		SvcRate:      stats.Constant{V: 10},
		Diurnal:      &workload.Diurnal{Period: sim.Seconds(1200), NightFactor: 2},
		BurstEvery:   sim.Seconds(600),
		BurstLen:     sim.Seconds(120),
		BurstFactor:  cfg.BurstAmp,
		Horizon:      sim.Seconds(3600),
	})
	batchStream := workload.Generate(workload.GenConfig{
		Apps: 14, VC: "vc2", Seed: cfg.Seed + 1,
		Interarrival: stats.Exponential{MeanV: 120},
		Work:         stats.Normal{Mu: 1550, Sigma: 200, Min: 60},
		VMs:          stats.Constant{V: 2},
	})
	return Scenario{
		Policy:   core.PolicyMeryn,
		Seed:     cfg.Seed,
		Workload: workload.Merge(services, batchStream),
		Mutate: func(c *core.Config) {
			c.VCs = []core.VCConfig{
				{Name: "svc1", Type: workload.TypeService, InitialVMs: 24},
				{Name: "vc2", Type: workload.TypeBatch, InitialVMs: 16},
			}
			c.MaxPenaltyFrac = 0.5
			if policy == ReplicaPolicyScaleOut {
				c.Enforcer = &core.ScaleOutEnforcer{BoostVMs: 2, MaxBoosts: 64}
			}
		},
	}
}

// ServicesGrid is the stock grid behind `-exp services`: replica
// policy x offered load x burst amplitude, 3 reps per cell.
func ServicesGrid() Grid {
	svc := func(r *core.Results) metrics.Aggregate {
		return metrics.AggregateRecords(r.Ledger.ByType(string(workload.TypeService)))
	}
	return Grid{
		Name: "services", Title: "Services", Prefix: "services/",
		About: "elastic latency-SLO services + batch stream; offered load x replica policy x burst amplitude",
		Notes: "slo attain = clean SLO intervals / evaluated intervals over service apps;\n" +
			"cloud frac = cloud VM-seconds over total VM-seconds; seeds derived per cell+rep",
		Axes: []Axis{
			{Key: "policy", Doc: "replica policy", Values: []any{ReplicaPolicyNoop, ReplicaPolicyScaleOut}},
			{Key: "load_mult", Label: "load", Doc: "offered-load multiplier", Values: []any{0.7, 1.0, 1.3}},
			{Key: "burst_amp", Label: "burst", Doc: "burst amplitude factor", Values: []any{1.0, 2.5}},
		},
		Reps: 3,
		Build: func(c Cell, seed int64) Scenario {
			return ServiceScenario(ServiceScenarioConfig{
				Seed: seed, Policy: c[0].(string), LoadMult: c[1].(float64), BurstAmp: c[2].(float64),
			})
		},
		Measures: []Measure{
			// Clean-interval fraction over service apps.
			{"slo_attainment", func(r *core.Results, _ *core.Platform) float64 { return svc(r).SLOAttainment }},
			// SLO-burn penalties refunded.
			{"penalty_units", func(r *core.Results, _ *core.Platform) float64 { return svc(r).TotalPenalty }},
			// Provider-side cost, all apps.
			{"cost_units", func(r *core.Results, _ *core.Platform) float64 { return allApps(r).TotalCost }},
			// Cloud VM-seconds over total VM-seconds.
			{"cloud_frac", func(r *core.Results, _ *core.Platform) float64 {
				horizon := sim.Seconds(r.CompletionTime)
				cloudS := r.CloudSeries.Integral(horizon)
				privS := r.PrivateSeries.Integral(horizon)
				if cloudS+privS > 0 {
					return cloudS / (cloudS + privS)
				}
				return 0
			}},
			{"peak_cloud_vms", peakCloud},
			// Widest any service scaled.
			{"peak_replicas", func(r *core.Results, _ *core.Platform) float64 {
				return peakReplicas(r, workload.TypeService)
			}},
			// Batch deadlines missed alongside.
			{"batch_missed", func(r *core.Results, _ *core.Platform) float64 {
				return float64(metrics.AggregateRecords(r.Ledger.ByType(string(workload.TypeBatch))).DeadlinesMissed)
			}},
			// Replicas yielded to winning bids.
			{"replica_reclaims", func(r *core.Results, _ *core.Platform) float64 {
				return float64(r.Counters.ReplicaReclaims.Count)
			}},
			// Controller target raises.
			{"replica_scale_outs", func(r *core.Results, _ *core.Platform) float64 {
				return float64(r.Counters.ReplicaScaleOuts.Count)
			}},
		},
		Columns: []Column{
			{Header: "policy", Key: "policy"},
			{Header: "load", Key: "load_mult"},
			{Header: "burst", Key: "burst_amp"},
			{Header: "slo attain", Key: "slo_attainment", Digits: 3},
			{Header: "penalty [u]", Key: "penalty_units"},
			{Header: "cost [u]", Key: "cost_units"},
			{Header: "cloud frac", Key: "cloud_frac", Digits: 3},
			{Header: "peak repl", Key: "peak_replicas", Digits: 1, Mean: true},
			{Header: "reclaims", Key: "replica_reclaims", Digits: 1, Mean: true},
		},
	}
}

// peakReplicas is the widest any application of the type scaled.
func peakReplicas(r *core.Results, typ workload.AppType) float64 {
	peak := 0
	for _, rec := range r.Ledger.ByType(string(typ)) {
		peak = max(peak, rec.PeakReplicas)
	}
	return float64(peak)
}
