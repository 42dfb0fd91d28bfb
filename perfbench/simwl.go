package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"meryn/internal/core"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/stats"
	"meryn/internal/workload"
)

// simWorkload is a simulator workload: a platform configuration and a
// seeded input generator, driven through the session API. The default
// invariant auditor runs, and each app is submitted when virtual time
// reaches its arrival, stepping the session there first, as an open
// platform receives them; Drain runs the rest.
type simWorkload struct {
	name   string
	config func(seed int64) core.Config
	inputs func(seed int64, size float64) workload.Workload
}

// inputSets is how many input sets one --seed stands for. Runs cycle
// through them and host-time metrics are averaged over each cycle, so
// one input's quirks (a costly burst, an extra bidding storm) weigh
// less in a figure: the cost of one input set differs from another's
// by up to a tenth.
const inputSets = 4

// inputSeed is the seed of input set j of --seed seed. Seeds give
// disjoint input sets.
func inputSeed(seed int64, j int) int64 { return seed*inputSets + int64(j) }

// mixedBurst is the path every paper experiment takes: the paper's
// private site (9 nodes x 12 cores, 50-VM cap) and one on-demand cloud
// under the meryn policy, hosting one VC per framework. Poisson batch
// and MapReduce streams run beside diurnal, bursty services and
// functions over a ~40 h virtual horizon, so bids, VM exchange,
// bursting, the enforcer and the auditor all stay busy. Shards=1: the
// paper's workloads are not shard-invariant yet, so this digest is the
// single-engine reference.
var mixedBurst = simWorkload{
	name: "mixed-burst",
	config: func(seed int64) core.Config {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.Policy = core.PolicyMeryn
		cfg.VCs = []core.VCConfig{
			{Name: "batch", Type: workload.TypeBatch, InitialVMs: 14},
			{Name: "mr", Type: workload.TypeMapReduce, InitialVMs: 12},
			{Name: "svc", Type: workload.TypeService, InitialVMs: 12},
			{Name: "fn", Type: workload.TypeServerless, InitialVMs: 12},
		}
		cfg.MaxPenaltyFrac = 0.5
		cfg.Enforcer = &core.ScaleOutEnforcer{BoostVMs: 2, MaxBoosts: 64}
		cfg.Shards = 1
		return cfg
	},
	inputs: func(seed int64, size float64) workload.Workload {
		n := func(full int) int { return max(2, int(math.Round(float64(full)*size))) }
		horizon := sim.Seconds(140000*size + 3600)
		work := stats.Normal{Mu: 1550, Sigma: 300, Min: 60}
		return workload.Merge(
			workload.Generate(workload.GenConfig{
				Apps: n(600), Type: workload.TypeBatch, VC: "batch", Seed: seed,
				Interarrival: stats.Exponential{MeanV: 230},
				Work:         work,
				VMs:          stats.Empirical{Values: []float64{1, 1, 2, 2, 3, 4}},
			}),
			workload.Generate(workload.GenConfig{
				Apps: n(600), Type: workload.TypeMapReduce, VC: "mr", Seed: seed + 1,
				Interarrival: stats.Exponential{MeanV: 230},
				Work:         work,
				VMs:          stats.Empirical{Values: []float64{1, 2, 2, 3}},
				MapTasks:     stats.Empirical{Values: []float64{4, 8, 8, 16}},
				ReduceTasks:  stats.Empirical{Values: []float64{1, 2}},
			}),
			workload.Services(workload.ServiceConfig{
				Apps: n(100), VC: "svc", Seed: seed + 2,
				Interarrival: stats.Exponential{MeanV: 1250},
				Lifetime:     stats.Uniform{Lo: 1800, Hi: 3600},
				BaseRate:     stats.Uniform{Lo: 20, Hi: 40},
				Diurnal:      &workload.Diurnal{Period: sim.Seconds(7200), NightFactor: 2},
				BurstEvery:   sim.Seconds(5400),
				BurstLen:     sim.Seconds(300),
				BurstFactor:  2,
				Horizon:      horizon,
			}),
			workload.Functions(workload.FunctionConfig{
				Apps: n(100), VC: "fn", Seed: seed + 3,
				Interarrival: stats.Exponential{MeanV: 1250},
				Lifetime:     stats.Uniform{Lo: 1800, Hi: 3600},
				BaseRate:     stats.Uniform{Lo: 15, Hi: 30},
				ColdStart:    stats.Uniform{Lo: 2, Hi: 8},
				BurstEvery:   sim.Seconds(5400),
				BurstLen:     sim.Seconds(300),
				BurstFactor:  2.5,
				Horizon:      horizon,
			}),
		)
	},
}

func runMixedBurst(o options, g *gate) (*report, error) { return runSim(mixedBurst, o, g) }

// simRep is one run of a simulator workload: fresh platform, every
// input submitted, drained, digested and checked. Its durations are
// process CPU time (cpuNow); spans keep wall time.
type simRep struct {
	setup, submit, drain, digest time.Duration
	audit                        time.Duration // final AuditNow (0 with the auditor off)
	wall                         time.Duration // submit and drain, wall time
	slow                         slowdown      // host slowdown around the run
	mutateP50, readP50           float64       // this run's latency medians, ms
	heapMB                       float64
	rt                           runtimeSample
	sum                          uint64
	apps                         int
	res                          *core.Results
	m                            core.PlatformMetrics
	agg                          metrics.Aggregate
}

// rebuild is the CPU time to rebuild the drained state from the
// inputs and fingerprint it — the simulator's recovery path.
func (r simRep) rebuild() time.Duration { return r.setup + r.submit + r.drain + r.digest }

// readPasses is how many timed passes read every app's status: a pass
// is short, so several keep a moment's host noise from setting a run's
// read median.
const readPasses = 8

// latencies pools per-call host latencies in milliseconds.
type latencies struct{ mutate, read []float64 }

// rep runs the workload once. audit=false switches the auditor off
// (the audit-share baseline). Submission and status-read latencies are
// appended to lat when it is non-nil.
func (wl simWorkload) rep(o options, audit bool, tr *tracer, g *gate, lat *latencies) (simRep, error) {
	w := wl.inputs(o.seed, o.size)
	cfg := wl.config(o.seed)
	var violations []error
	if audit {
		cfg.Audit = &core.AuditConfig{OnFail: func(err error) { violations = append(violations, err) }}
	} else {
		cfg.Audit = &core.AuditConfig{Disabled: true}
	}
	r := simRep{apps: len(w)}
	root := tr.id()
	c0, t0 := cpuNow(), time.Now()
	p, err := core.NewPlatform(cfg)
	if err != nil {
		return r, fmt.Errorf("%s: %w", wl.name, err)
	}
	s, err := p.Open()
	if err != nil {
		return r, fmt.Errorf("%s: %w", wl.name, err)
	}
	c1, t1 := cpuNow(), time.Now()
	tr.add(root, "core", "NewPlatform+Open", t0, t1)

	heap := startHeapMeter()
	before := readRuntime()
	submitErr := make([]error, len(w))
	cs, ts := cpuNow(), time.Now()
	for i := range w {
		s.Step(w[i].SubmitAt)
		a := time.Now()
		_, submitErr[i] = s.SubmitWith(w[i], nil)
		if lat != nil {
			lat.mutate = append(lat.mutate, ms(time.Since(a)))
		}
	}
	c2, t2 := cpuNow(), time.Now()
	tr.record(tr.id(), root, "core", "Session.Step+SubmitWith", ts, t2, len(w))
	res, drainErr := s.Drain()
	c3, t3 := cpuNow(), time.Now()
	tr.add(root, "core", "Session.Drain", t2, t3)
	r.rt = readRuntime().sub(before)
	r.heapMB = heap.finish()
	cd, td := cpuNow(), time.Now()
	r.sum = s.Digest()
	c4, t4 := cpuNow(), time.Now()
	tr.add(root, "core", "Session.Digest", td, t4)
	r.setup, r.submit, r.drain, r.digest = c1-c0, c2-cs, c3-c2, c4-cd
	r.wall = t3.Sub(ts)

	// Gate: every submitted app settles, Drain succeeds, and the final
	// audit with the auditor on is clean. The gate's pass over the
	// statuses warms the caches; further passes are timed as the reads.
	for i := range w {
		st, err := s.Status(w[i].ID)
		g.attempted++
		if settled := err == nil && (st.Phase == core.PhaseCompleted || st.Phase == core.PhaseRejected); submitErr[i] != nil || !settled {
			g.fail("%s: app %s: submit err %v, status %q err %v", wl.name, w[i].ID, submitErr[i], st.Phase, err)
		}
	}
	tr4 := time.Now()
	for pass := 0; pass < readPasses; pass++ {
		for i := range w {
			a := time.Now()
			_, _ = s.Status(w[i].ID) // checked by the gate pass above
			if lat != nil {
				lat.read = append(lat.read, ms(time.Since(a)))
			}
		}
	}
	t5 := time.Now()
	tr.record(tr.id(), root, "core", "Session.Status", t4, tr4, len(w))
	tr.record(tr.id(), root, "core", "Session.Status", tr4, t5, readPasses*len(w))
	g.op(drainErr == nil, "%s: drain: %v", wl.name, drainErr)
	if drainErr != nil {
		return r, nil
	}
	r.m = s.Metrics()
	t6 := time.Now()
	tr.add(root, "core", "Session.Metrics", t5, t6)
	if audit {
		ca := cpuNow()
		auditErr := p.AuditNow()
		r.audit = cpuNow() - ca
		t7 := time.Now()
		tr.add(root, "core", "Platform.AuditNow", t6, t7)
		g.op(auditErr == nil && len(violations) == 0, "%s: audit: %v", wl.name, errors.Join(append(violations, auditErr)...))
		t6 = t7
	}
	tr.record(root, 0, "bench", wl.name+" run", t0, t6, 1)
	r.res = res
	r.agg = metrics.AggregateRecords(res.Ledger.All())
	return r, nil
}

// setupOnly times NewPlatform+Open on a throwaway platform, in process
// CPU time.
func (wl simWorkload) setupOnly(seed int64) (time.Duration, error) {
	cfg := wl.config(seed)
	c0 := cpuNow()
	p, err := core.NewPlatform(cfg)
	if err != nil {
		return 0, err
	}
	if _, err := p.Open(); err != nil {
		return 0, err
	}
	return cpuNow() - c0, nil
}

// Run-count floors, in cycles through the input sets: the traced mode
// alternates traced and untraced cycles. Set-up is cheap next to a
// run, so extra set-ups steady its median.
const (
	minCycles   = 2
	extraSetups = 10
)

// runSim repeats the workload in cycles through its input sets until
// o.seconds have passed and a cycle ends. Host-time metrics are the
// median over cycles of each cycle's mean (for throughput, its total
// apps over its total time), scaled by the host slowdown (calib.go);
// rep.raw keeps them unscaled. Per-layer times are medians over the
// runs of the first input set, whose first run gives the counts. In
// traced mode cycles alternate traced and untraced, so tracing overhead
// is read against an untraced median measured in the same process.
func runSim(wl simWorkload, o options, g *gate) (*report, error) {
	rep := &report{metrics: map[string]float64{}, raw: map[string]float64{}, samples: map[string]int{}}
	// Warm-up: one untimed run, so the heap, page tables and caches are
	// in their steady state before the first timing.
	warm := o
	warm.seed = inputSeed(o.seed, 0)
	if _, err := wl.rep(warm, true, nil, g, nil); err != nil {
		return nil, err
	}
	host := &hostMeter{}
	slow0 := host.sample()
	var setups, rawSetups []float64
	for i := 0; i < extraSetups; i++ {
		d, err := wl.setupOnly(inputSeed(o.seed, i%inputSets))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds()/slow0.cpu)
		rawSetups = append(rawSetups, d.Seconds())
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	floor := minCycles * inputSets
	var reps, reps0, traced, untraced []simRep
	firstSum := make([]uint64, inputSets)
	lat := &latencies{}
	start := time.Now()
	for i := 0; i < floor || i%inputSets != 0 || time.Since(start).Seconds() < o.seconds; i++ {
		j := i % inputSets
		var t *tracer
		if (i/inputSets)%2 == 0 {
			t = tr
		}
		vo := o
		vo.seed = inputSeed(o.seed, j)
		nm, nr := len(lat.mutate), len(lat.read)
		r, err := wl.rep(vo, true, t, g, lat)
		if err != nil {
			return nil, err
		}
		r.slow = host.sample()
		r.mutateP50, r.readP50 = median(lat.mutate[nm:]), median(lat.read[nr:])
		if r.res == nil {
			return rep, nil // drain failed; the gate has counted it
		}
		if i < inputSets {
			firstSum[j] = r.sum
		} else {
			g.op(r.sum == firstSum[j], "%s: run %d (input set %d) digest %016x differs from %016x",
				wl.name, i, j, r.sum, firstSum[j])
		}
		if i > 0 {
			r.res = nil // only the first run's results are read; keep the heap flat
		}
		rep.digests = append(rep.digests, fmt.Sprintf("%016x", r.sum))
		rep.runSeconds = append(rep.runSeconds, (r.submit + r.drain).Seconds())
		rep.wallSeconds = append(rep.wallSeconds, r.wall.Seconds())
		reps = append(reps, r)
		if j == 0 {
			reps0 = append(reps0, r)
		}
		setups = append(setups, r.setup.Seconds()/r.slow.cpu)
		rawSetups = append(rawSetups, r.setup.Seconds())
		if t != nil {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}

	perRep := func(f func(simRep) float64, rs []simRep) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	// perCycle is the median over cycles of each cycle's total of num
	// over its total of den.
	perCycle := func(num, den func(simRep) float64) float64 {
		var xs []float64
		for c := 0; c < len(reps); c += inputSets {
			n, d := 0.0, 0.0
			for _, r := range reps[c : c+inputSets] {
				n += num(r)
				d += den(r)
			}
			xs = append(xs, n/d)
		}
		return median(xs)
	}
	one := func(simRep) float64 { return 1 }
	apps := func(r simRep) float64 { return float64(r.apps) }
	busy := func(r simRep) float64 { return (r.submit + r.drain).Seconds() }
	rebuild := func(r simRep) float64 { return r.rebuild().Seconds() }
	scaled := func(f func(simRep) float64) func(simRep) float64 {
		return func(r simRep) float64 { return f(r) / r.slow.cpu }
	}
	latScaled := func(f func(simRep) float64) func(simRep) float64 {
		return func(r simRep) float64 { return f(r) / r.slow.lat }
	}
	mutateP50 := func(r simRep) float64 { return r.mutateP50 }
	readP50 := func(r simRep) float64 { return r.readP50 }
	first := reps[0]
	m := rep.metrics
	raw := rep.raw
	raw["setup_s"] = median(rawSetups)
	raw["apps_per_s"] = perCycle(apps, busy)
	raw["mutate_p50_ms"] = perCycle(mutateP50, one)
	raw["read_p50_ms"] = perCycle(readP50, one)
	raw["recovery_s"] = perCycle(rebuild, one)
	m["setup_s"] = median(setups)
	m["apps_per_s"] = perCycle(apps, scaled(busy))
	m["heap_peak_mb"] = perCycle(func(r simRep) float64 { return r.heapMB }, one)
	m["mutate_p50_ms"] = perCycle(latScaled(mutateP50), one)
	m["latency.mutate_p99_ms"] = tailQuantile(lat.mutate)
	m["read_p50_ms"] = perCycle(latScaled(readP50), one)
	m["latency.read_p99_ms"] = tailQuantile(lat.read)
	m["recovery_s"] = perCycle(scaled(rebuild), one)
	m["host.slowdown"] = perRep(func(r simRep) float64 { return r.slow.cpu }, reps)
	m["host.lat_slowdown"] = perRep(func(r simRep) float64 { return r.slow.lat }, reps)
	aggs := make([]metrics.Aggregate, inputSets)
	for j := range aggs {
		aggs[j] = reps[j].agg
	}
	simOutcome(m, aggs...)
	rep.hostRefMS, rep.hostLatMS = host.refMS, host.latMS
	rep.samples["runs"] = len(reps)
	rep.samples["input_sets"] = inputSets
	rep.samples["cycles"] = len(reps) / inputSets
	rep.samples["setup"] = len(setups)
	rep.samples["mutate"] = len(lat.mutate)
	rep.samples["read"] = len(lat.read)

	// Per-layer counts come from the deterministic first run; times are
	// medians over the runs of the same input set.
	drain := perRep(func(r simRep) float64 { return r.drain.Seconds() }, reps0)
	c := first.res.Counters
	m["sim.events"] = float64(first.res.EventsFired)
	m["sim.ns_per_event"] = drain * 1e9 / float64(first.res.EventsFired)
	m["core.submit_s"] = perRep(func(r simRep) float64 { return r.submit.Seconds() }, reps0)
	m["core.drain_s"] = drain
	m["core.bid_rounds"] = float64(c.BidRounds.Count)
	m["core.vm_transfers"] = float64(c.VMTransfers.Count)
	m["core.suspensions"] = float64(c.Suspensions.Count)
	m["core.neg_rounds"] = float64(first.m.NegRounds)
	m["core.audit_checks"] = float64(first.res.AuditChecks)
	m["core.digest_ms"] = perRep(func(r simRep) float64 { return ms(r.digest) }, reps0)
	m["cloud.leases"] = float64(c.CloudLeases.Count)
	m["cloud.spend"] = first.res.CloudSpend
	m["framework.cold_starts"] = float64(c.ColdStarts.Count)
	m["framework.replica_scaleouts"] = float64(c.ReplicaScaleOuts.Count)
	m["runtime.gc_cpu_frac"] = perRep(func(r simRep) float64 { return r.rt.gcFrac() }, reps0)
	m["runtime.alloc_bytes_per_app"] = perRep(func(r simRep) float64 { return float64(r.rt.allocBytes) / float64(r.apps) }, reps0)
	m["runtime.mallocs_per_app"] = perRep(func(r simRep) float64 { return float64(r.rt.mallocs) / float64(r.apps) }, reps0)
	m["core.audit_call_ms"] = perRep(func(r simRep) float64 { return ms(r.audit) }, reps0)
	if o.trace {
		// The audit share compares submit and drain against one run with
		// the auditor off (online submission steps the session, so drain
		// alone misses most of the run); the auditor is read-only, so
		// the digest must match.
		vo := o
		vo.seed = inputSeed(o.seed, 0)
		off, err := wl.rep(vo, false, nil, g, nil)
		if err != nil {
			return nil, err
		}
		off.slow = host.sample()
		g.op(off.sum == first.sum, "%s: auditor-off digest %016x differs from %016x", wl.name, off.sum, first.sum)
		m["core.audit_share"] = 1 - scaled(busy)(off)/perRep(scaled(busy), reps0)
	}
	if o.trace {
		rep.spans = tr.all()
		self, roots := selfTimes(rep.spans)
		m["self_frac.core"] = self["core"] / roots
		m["self_frac.residual"] = self["bench"] / roots
		m["trace.overhead_frac"] = perRep(scaled(rebuild), traced)/perRep(scaled(rebuild), untraced) - 1
		rep.samples["traced_runs"] = len(traced)
	}
	return rep, nil
}

// simOutcome sets the simulated SLA outcome: the mean over the input
// sets of each one's ledger aggregate.
func simOutcome(m map[string]float64, aggs ...metrics.Aggregate) {
	var profit, met, slo float64
	for _, agg := range aggs {
		profit += agg.TotalProfit
		met += float64(agg.N-agg.DeadlinesMissed) / float64(max(1, agg.N))
		slo += agg.SLOAttainment
	}
	n := float64(len(aggs))
	m["sim.profit"], m["sim.deadline_met_frac"], m["sim.slo_attainment"] = profit/n, met/n, slo/n
}
