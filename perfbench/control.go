package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"meryn/internal/api"
	"meryn/internal/api/server"
	"meryn/internal/core"
	"meryn/internal/durable"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/stats"
	"meryn/internal/telemetry"
)

// control-durable runs in-process equivalents of merynd at its
// defaults — the paper's two batch VCs, virtual time (every mutation
// runs the session to settlement), the telemetry registry, snapshots
// every 64 records, 256 mutations in flight — under a closed loop of
// one client per CPU. Each client runs sessions of submit, accept offer
// 0, GET the status and GET /v1/vcs. A round has two phases:
//
//   - serve: controlSessions sessions per client against a control plane
//     without a state directory (merynd's default). HTTP, the write
//     mutex, reads beside writes and session apply set the end-to-end
//     throughput and latencies.
//   - journal: journalSessions sessions per client against a control
//     plane with a durable store on disk, so every mutation is appended
//     and fsync'd under the write mutex and snapshots are sealed. The
//     store is then reopened and replayed into a fresh session until
//     its digest matches the live one (recovery).
//
// The journal phase stays out of the throughput and latency figures
// because fsync on a shared virtual disk drifts by half between runs
// minutes apart, which no regression bound of 25% can absorb; its cost
// is reported per layer (durable.*) and through recovery_s.
const (
	controlSessions      = 500
	journalSessions      = 40
	controlSnapshotEvery = 64
	controlMaxInFlight   = 256
	minControlRounds     = 3
	minTracedRounds      = 4
)

// Header carrying the client's request span ID to the server-side
// middleware, so handler spans chain to the request that caused them.
const spanHeader = "X-Perfbench-Span"

// controlInputs generates each client's applications from the seed.
func controlInputs(seed int64, clients, sessions int) [][]api.App {
	work := stats.Normal{Mu: 1550, Sigma: 300, Min: 60}
	vms := stats.Empirical{Values: []float64{1, 2, 2, 3, 4}}
	out := make([][]api.App, clients)
	for c := range out {
		rng := sim.NewRNG(seed, fmt.Sprintf("perfbench/control/%d", c))
		for k := 0; k < sessions; k++ {
			out[c] = append(out[c], api.App{
				ID:    fmt.Sprintf("c%d-%04d", c, k),
				Type:  "batch",
				VC:    fmt.Sprintf("vc%d", 1+k%2),
				VMs:   int(vms.Sample(rng)),
				WorkS: work.Sample(rng),
			})
		}
	}
	return out
}

// roundSpans collects one round's spans from the client goroutines,
// the server middleware and the mutate hook.
type roundSpans struct {
	tr    *tracer
	mu    sync.Mutex
	spans []span
}

func (rs *roundSpans) add(s span) {
	rs.mu.Lock()
	rs.spans = append(rs.spans, s)
	rs.mu.Unlock()
}

func (rs *roundSpans) make(id, parent int64, layer, name string, start, end time.Time) span {
	return rs.tr.span(id, parent, layer, name, start, end, 1)
}

// middleware times the server's handler around every client request
// (health checks and scrapes carry no span header and are not traced).
func (rs *roundSpans) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		if parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64); err == nil {
			rs.add(rs.make(rs.tr.id(), parent, "server", requestRoute(r), start, time.Now()))
		}
	})
}

// requestRoute names a client request by its route.
func requestRoute(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/apps":
		return "submit"
	case r.Method == http.MethodPost:
		return "accept"
	case r.URL.Path == "/v1/vcs":
		return "vcs"
	default:
		return "status"
	}
}

// clientResult is one client goroutine's tally for a round.
type clientResult struct {
	mutate, read []float64 // request latencies, ms
	requests     int
	failed       []string // one line per non-2xx answer or unreadable body
	sessions     int      // sessions attempted
	incomplete   []string // sessions that did not complete
}

// runClient runs one client's closed loop of sessions.
func runClient(h http.Handler, apps []api.App, rs *roundSpans, c int) clientResult {
	var res clientResult
	var root int64
	var rootStart time.Time
	if rs != nil {
		root, rootStart = rs.tr.id(), time.Now()
	}
	do := func(method, path string, body any, out any) bool {
		var rd io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				res.failed = append(res.failed, err.Error())
				return false
			}
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, path, rd)
		if err != nil {
			res.failed = append(res.failed, err.Error())
			return false
		}
		var id int64
		if rs != nil {
			id = rs.tr.id()
			req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		}
		start := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		resp := rec.Result()
		data, err := io.ReadAll(resp.Body)
		end := time.Now()
		res.requests++
		route := requestRoute(req)
		if rs != nil {
			rs.add(rs.make(id, root, "http_client", route, start, end))
		}
		if route == "submit" || route == "accept" {
			res.mutate = append(res.mutate, ms(end.Sub(start)))
		} else {
			res.read = append(res.read, ms(end.Sub(start)))
		}
		if err != nil {
			res.failed = append(res.failed, fmt.Sprintf("%s %s: %v", method, path, err))
			return false
		}
		if resp.StatusCode/100 != 2 {
			res.failed = append(res.failed, fmt.Sprintf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data)))
			return false
		}
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				res.failed = append(res.failed, fmt.Sprintf("%s %s: %v", method, path, err))
				return false
			}
		}
		return true
	}
	for _, app := range apps {
		res.sessions++
		var st api.AppStatus
		ok := do(http.MethodPost, "/v1/apps", app, &st) &&
			do(http.MethodPost, "/v1/apps/"+app.ID+"/accept", map[string]int{"offer_index": 0}, nil) &&
			do(http.MethodGet, "/v1/apps/"+app.ID, nil, &st) &&
			do(http.MethodGet, "/v1/vcs", nil, nil)
		if !ok || st.Phase != string(core.PhaseCompleted) {
			res.incomplete = append(res.incomplete, fmt.Sprintf("client %d session %s ended in phase %q", c, app.ID, st.Phase))
		}
	}
	if rs != nil {
		rs.add(rs.make(root, 0, "bench", fmt.Sprintf("client %d", c), rootStart, time.Now()))
	}
	return res
}

// plane is one in-process control plane and its HTTP handler.
type plane struct {
	p       *core.Platform
	sess    *core.Session
	store   *durable.Store // nil without a state directory
	handler http.Handler

	ckptMu   sync.Mutex
	ckptErrs []string
}

// startPlane builds a control plane (with a durable store in dir when
// dir is not empty) and checks that its handler answers /healthz. It
// returns the set-up time in process CPU time. Clients call the handler
// in process: the loopback network stack and its wakeups would add host
// scheduling noise, not control-plane work.
func startPlane(cfg core.Config, meta durable.Meta, dir string, rs *roundSpans) (*plane, time.Duration, error) {
	pl := &plane{}
	c0, t0 := cpuNow(), time.Now()
	p, err := core.NewPlatform(cfg)
	if err != nil {
		return nil, 0, err
	}
	sess, err := p.Open()
	if err != nil {
		return nil, 0, err
	}
	pl.p, pl.sess = p, sess
	tOpen := time.Now()
	if dir != "" {
		if pl.store, err = durable.Open(dir, meta); err != nil {
			return nil, 0, err
		}
	}
	tStore := time.Now()
	onMutate := func() { sess.RunToSettle() }
	if rs != nil {
		onMutate = func() {
			a := time.Now()
			sess.RunToSettle()
			rs.add(rs.make(rs.tr.id(), 0, "core", "OnMutate", a, time.Now()))
		}
	}
	srvCfg := server.Config{
		OnMutate:      onMutate,
		SnapshotEvery: controlSnapshotEvery,
		MaxInFlight:   controlMaxInFlight,
		Logf: func(format string, args ...any) {
			pl.ckptMu.Lock()
			pl.ckptErrs = append(pl.ckptErrs, fmt.Sprintf(format, args...))
			pl.ckptMu.Unlock()
		},
		Store:    pl.store,
		Logger:   telemetry.NewLogger(io.Discard, telemetry.LogConfig{Level: "info"}),
		Registry: telemetry.NewRegistry(),
	}
	handler := server.New(sess, srvCfg).Handler()
	if rs != nil {
		handler = rs.middleware(handler)
	}
	pl.handler = handler
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		pl.closeStore()
		return nil, 0, fmt.Errorf("control plane not serving: /healthz answered %d", rec.Code)
	}
	cUp, tUp := cpuNow(), time.Now()
	if rs != nil {
		root := rs.tr.id()
		rs.add(rs.make(rs.tr.id(), root, "core", "NewPlatform+Open", t0, tOpen))
		if pl.store != nil {
			rs.add(rs.make(rs.tr.id(), root, "durable", "durable.Open", tOpen, tStore))
		}
		rs.add(rs.make(rs.tr.id(), root, "server", "server.New", tStore, tUp))
		rs.add(rs.make(root, 0, "bench", "setup", t0, tUp))
	}
	return pl, cUp - c0, nil
}

func (pl *plane) closeStore() error {
	if pl.store == nil {
		return nil
	}
	return pl.store.Close()
}

// loopResult is one closed loop's outcome.
type loopResult struct {
	wall     time.Duration
	cpu      time.Duration
	sessions int // completed
	mutate   []float64
	read     []float64
	rt       runtimeSample
	heapMB   float64
	scrape   []telemetry.Sample
}

// loop runs one client goroutine per input list, records outcomes in g
// and scrapes the server's /metrics afterwards.
func (pl *plane) loop(inputs [][]api.App, rs *roundSpans, g *gate) loopResult {
	var lr loopResult
	heap := startHeapMeter()
	before := readRuntime()
	results := make([]clientResult, len(inputs))
	var wg sync.WaitGroup
	c0, start := cpuNow(), time.Now()
	for c := range inputs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = runClient(pl.handler, inputs[c], rs, c)
		}(c)
	}
	wg.Wait()
	lr.wall, lr.cpu = time.Since(start), cpuNow()-c0
	lr.rt = readRuntime().sub(before)
	lr.heapMB = heap.finish()
	for _, cr := range results {
		g.attempted += int64(cr.requests + cr.sessions)
		for _, f := range cr.failed {
			g.fail("request: %s", f)
		}
		for _, f := range cr.incomplete {
			g.fail("%s", f)
		}
		lr.sessions += cr.sessions - len(cr.incomplete)
		lr.mutate = append(lr.mutate, cr.mutate...)
		lr.read = append(lr.read, cr.read...)
	}
	rec := httptest.NewRecorder()
	pl.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var err error
	lr.scrape, err = telemetry.ParseText(rec.Body)
	g.op(rec.Code == http.StatusOK && err == nil, "scrape /metrics: %d %v", rec.Code, err)
	pl.ckptMu.Lock()
	g.op(len(pl.ckptErrs) == 0, "checkpoints: %v", pl.ckptErrs)
	pl.ckptMu.Unlock()
	return lr
}

// controlRound is one round: the serve phase's loop and the journal
// phase's loop and recovery.
type controlRound struct {
	setup, recovery, replay, digest time.Duration // setup and recovery in CPU time
	slow                            slowdown      // host slowdown around the round
	mutateP50, readP50              float64       // serve-phase latency medians, ms
	live                            uint64        // journal-phase session digest
	records                         int           // records replayed
	snapshotBytes                   int64
	serve, journal                  loopResult
	m                               core.PlatformMetrics // serve phase
	agg                             metrics.Aggregate    // serve phase
	serveSpans, journalSpans        []span               // nil when untraced
}

// scrapeSum returns the sum of every sample of the named series.
func scrapeSum(samples []telemetry.Sample, name string) float64 {
	v := 0.0
	for _, s := range samples {
		if s.Name == name {
			v += s.Value
		}
	}
	return v
}

// controlConfig is merynd's default platform and the store fingerprint
// it writes.
func controlConfig(seed int64) (core.Config, durable.Meta) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return cfg, durable.Meta{Seed: seed, Policy: cfg.Policy.String()}
}

// prefix returns the first n sessions of every client's inputs.
func prefix(inputs [][]api.App, n int) [][]api.App {
	out := make([][]api.App, len(inputs))
	for c, apps := range inputs {
		out[c] = apps[:min(n, len(apps))]
	}
	return out
}

// controlRoundRun runs one round and records its outcomes in g.
func controlRoundRun(o options, inputs, journalInputs [][]api.App, tr *tracer, g *gate) (controlRound, error) {
	var r controlRound
	cfg, meta := controlConfig(o.seed)
	var rs, js *roundSpans
	if tr != nil {
		rs, js = &roundSpans{tr: tr}, &roundSpans{tr: tr}
	}

	// Serve phase.
	pl, _, err := startPlane(cfg, meta, "", rs)
	if err != nil {
		return r, err
	}
	r.serve = pl.loop(inputs, rs, g)
	r.m = pl.sess.Metrics()
	r.agg = metrics.AggregateRecords(pl.p.Ledger.All())

	// Journal phase.
	dir, err := os.MkdirTemp(o.outDir, "state-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	jp, setup, err := startPlane(cfg, meta, dir, js)
	if err != nil {
		return r, err
	}
	r.setup = setup
	r.journal = jp.loop(journalInputs, js, g)
	td := time.Now()
	r.live = jp.sess.Digest()
	r.digest = time.Since(td)
	if err := jp.closeStore(); err != nil {
		return r, err
	}
	if fi, err := os.Stat(filepath.Join(dir, "snapshot.json")); err == nil {
		r.snapshotBytes = fi.Size()
	}

	// Recovery: reopen the store and replay it into a fresh session
	// until the digest matches the live one.
	c0, r0 := cpuNow(), time.Now()
	store, err := durable.Open(dir, meta)
	if err != nil {
		return r, err
	}
	defer store.Close()
	r1 := time.Now()
	p2, err := core.NewPlatform(cfg)
	if err != nil {
		return r, err
	}
	sess2, err := p2.Open()
	if err != nil {
		return r, err
	}
	recs := store.Records()
	r2 := time.Now()
	st := durable.Replay(sess2, recs, func() { sess2.RunToSettle() })
	r3 := time.Now()
	replayed := sess2.Digest()
	c4, r4 := cpuNow(), time.Now()
	r.recovery, r.replay, r.records = c4-c0, r3.Sub(r2), len(recs)
	// Records refused live are refused again on replay, so only the
	// digest decides.
	g.op(replayed == r.live, "recovery: replayed digest %016x vs live %016x (%d records refused: %v)",
		replayed, r.live, st.Failed, st.Errors)
	if tr != nil {
		root := tr.id()
		js.add(js.make(tr.id(), root, "durable", "durable.Open", r0, r1))
		js.add(js.make(tr.id(), root, "core", "NewPlatform+Open", r1, r2))
		js.add(js.make(tr.id(), root, "durable", "durable.Replay", r2, r3))
		js.add(js.make(tr.id(), root, "core", "Session.Digest", r3, r4))
		js.add(js.make(root, 0, "bench", "recovery", r0, r4))
		r.serveSpans, r.journalSpans = linkApplies(rs.spans), linkApplies(js.spans)
		tr.extend(r.serveSpans)
		tr.extend(r.journalSpans)
	}
	return r, nil
}

// linkApplies parents each OnMutate span to the mutation handler that
// ran it. Mutations hold the server's write mutex across apply and
// reply, so the handler that ran an apply is the submit or accept
// handler enclosing it that finishes first.
func linkApplies(spans []span) []span {
	for i := range spans {
		a := &spans[i]
		if a.Layer != "core" || a.Name != "OnMutate" {
			continue
		}
		best := -1
		for j, h := range spans {
			if h.Layer != "server" || (h.Name != "submit" && h.Name != "accept") {
				continue
			}
			if h.Start <= a.Start && h.End >= a.End && (best < 0 || h.End < spans[best].End) {
				best = j
			}
		}
		if best >= 0 {
			a.Parent = spans[best].ID
		}
	}
	return spans
}

// runControlDurable repeats rounds until o.seconds have passed and
// reports medians over rounds, latency p50s included; the per-layer
// tails pool every serve-phase request.
func runControlDurable(o options, g *gate) (*report, error) {
	rep := &report{metrics: map[string]float64{}, raw: map[string]float64{}, samples: map[string]int{}}
	clients := runtime.NumCPU()
	inputs := controlInputs(o.seed, clients, max(1, int(float64(controlSessions)*o.size)))
	journalInputs := prefix(inputs, max(1, int(float64(journalSessions)*o.size)))
	var tr *tracer
	floor := minControlRounds
	if o.trace {
		tr = newTracer()
		floor = minTracedRounds
	}
	var rounds, traced, untraced []controlRound
	var mutate, read []float64
	// Warm-up: one untimed round, so the heap, page tables and caches
	// are in their steady state before the first timing.
	if _, err := controlRoundRun(o, inputs, journalInputs, nil, g); err != nil {
		return nil, err
	}
	host := &hostMeter{}
	host.sample()
	start := time.Now()
	for i := 0; i < floor || time.Since(start).Seconds() < o.seconds; i++ {
		var t *tracer
		if i%2 == 0 {
			t = tr
		}
		r, err := controlRoundRun(o, inputs, journalInputs, t, g)
		if err != nil {
			return nil, err
		}
		r.slow = host.sample()
		r.mutateP50, r.readP50 = median(r.serve.mutate), median(r.serve.read)
		rep.digests = append(rep.digests, fmt.Sprintf("%016x", r.live))
		rep.runSeconds = append(rep.runSeconds, r.serve.cpu.Seconds())
		rep.wallSeconds = append(rep.wallSeconds, r.serve.wall.Seconds())
		mutate = append(mutate, r.serve.mutate...)
		read = append(read, r.serve.read...)
		r.serve.mutate, r.serve.read = nil, nil
		rounds = append(rounds, r)
		if t != nil {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	per := func(f func(controlRound) float64, rs []controlRound) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	// Throughput is sessions per CPU second of the serve loop. Host-time
	// metrics are scaled by the host slowdown (calib.go); rep.raw keeps
	// them unscaled.
	rate := func(r controlRound) float64 { return float64(r.serve.sessions) / r.serve.cpu.Seconds() }
	raw := rep.raw
	raw["setup_s"] = per(func(r controlRound) float64 { return r.setup.Seconds() }, rounds)
	raw["apps_per_s"] = per(rate, rounds)
	raw["mutate_p50_ms"] = per(func(r controlRound) float64 { return r.mutateP50 }, rounds)
	raw["read_p50_ms"] = per(func(r controlRound) float64 { return r.readP50 }, rounds)
	raw["recovery_s"] = per(func(r controlRound) float64 { return r.recovery.Seconds() }, rounds)
	m := rep.metrics
	m["setup_s"] = per(func(r controlRound) float64 { return r.setup.Seconds() / r.slow.cpu }, rounds)
	m["apps_per_s"] = per(func(r controlRound) float64 { return rate(r) * r.slow.cpu }, rounds)
	m["heap_peak_mb"] = per(func(r controlRound) float64 { return r.serve.heapMB }, rounds)
	m["mutate_p50_ms"] = per(func(r controlRound) float64 { return r.mutateP50 / r.slow.lat }, rounds)
	m["latency.mutate_p99_ms"] = tailQuantile(mutate)
	m["read_p50_ms"] = per(func(r controlRound) float64 { return r.readP50 / r.slow.lat }, rounds)
	m["latency.read_p99_ms"] = tailQuantile(read)
	m["recovery_s"] = per(func(r controlRound) float64 { return r.recovery.Seconds() / r.slow.cpu }, rounds)
	m["host.slowdown"] = per(func(r controlRound) float64 { return r.slow.cpu }, rounds)
	m["host.lat_slowdown"] = per(func(r controlRound) float64 { return r.slow.lat }, rounds)
	rep.hostRefMS, rep.hostLatMS = host.refMS, host.latMS
	m["sim.profit"] = per(func(r controlRound) float64 { return r.agg.TotalProfit }, rounds)
	m["sim.deadline_met_frac"] = per(func(r controlRound) float64 {
		return float64(r.agg.N-r.agg.DeadlinesMissed) / float64(max(1, r.agg.N))
	}, rounds)
	m["sim.slo_attainment"] = per(func(r controlRound) float64 { return r.agg.SLOAttainment }, rounds)
	rep.samples["rounds"] = len(rounds)
	rep.samples["clients"] = clients
	rep.samples["serve_sessions_per_round"] = clients * len(inputs[0])
	rep.samples["journal_sessions_per_round"] = clients * len(journalInputs[0])
	rep.samples["mutate"] = len(mutate)
	rep.samples["read"] = len(read)

	first := rounds[0]
	c := first.m.Counters
	m["sim.events"] = float64(first.m.EventsFired)
	m["core.bid_rounds"] = float64(c.BidRounds.Count)
	m["core.vm_transfers"] = float64(c.VMTransfers.Count)
	m["core.suspensions"] = float64(c.Suspensions.Count)
	m["core.neg_rounds"] = float64(first.m.NegRounds)
	m["core.audit_checks"] = float64(first.m.AuditChecks)
	m["core.digest_ms"] = per(func(r controlRound) float64 { return ms(r.digest) }, rounds)
	m["cloud.leases"] = float64(c.CloudLeases.Count)
	m["cloud.spend"] = first.m.CloudSpend
	m["framework.cold_starts"] = float64(c.ColdStarts.Count)
	m["framework.replica_scaleouts"] = float64(c.ReplicaScaleOuts.Count)
	m["runtime.gc_cpu_frac"] = per(func(r controlRound) float64 { return r.serve.rt.gcFrac() }, rounds)
	m["runtime.alloc_bytes_per_app"] = per(func(r controlRound) float64 {
		return float64(r.serve.rt.allocBytes) / float64(max(1, r.serve.sessions))
	}, rounds)
	m["runtime.mallocs_per_app"] = per(func(r controlRound) float64 {
		return float64(r.serve.rt.mallocs) / float64(max(1, r.serve.sessions))
	}, rounds)
	m["durable.snapshot_bytes"] = float64(first.snapshotBytes)
	m["durable.replay_records_per_s"] = per(func(r controlRound) float64 { return float64(r.records) / r.replay.Seconds() }, rounds)

	// The journal phase's own histograms, read back as _sum/_count.
	var appendS, appendN, fsyncS, fsyncN, sealS, sealN, shed, journalMutations float64
	for _, r := range rounds {
		js := r.journal.scrape
		appendS += scrapeSum(js, "meryn_journal_append_seconds_sum")
		appendN += scrapeSum(js, "meryn_journal_append_seconds_count")
		fsyncS += scrapeSum(js, "meryn_journal_fsync_seconds_sum")
		fsyncN += scrapeSum(js, "meryn_journal_fsync_seconds_count")
		sealS += scrapeSum(js, "meryn_snapshot_seal_seconds_sum")
		sealN += scrapeSum(js, "meryn_snapshot_seal_seconds_count")
		shed += scrapeSum(r.serve.scrape, "meryn_http_requests_shed_total") + scrapeSum(js, "meryn_http_requests_shed_total")
		journalMutations += float64(len(r.journal.mutate))
	}
	m["durable.append_ms"] = 1000 * appendS / max(1, appendN)
	m["durable.fsync_ms"] = 1000 * fsyncS / max(1, fsyncN)
	m["durable.fsyncs_per_mutation"] = fsyncN / max(1, journalMutations)
	m["durable.seal_ms"] = 1000 * sealS / max(1, sealN)
	m["durable.seals"] = sealN / float64(len(rounds))
	m["durable.mutate_ms"] = per(func(r controlRound) float64 { return mean(r.journal.mutate) }, rounds)
	m["server.shed"] = shed

	if o.trace {
		controlLayers(m, traced)
		m["trace.overhead_frac"] = per(rate, untraced)/per(rate, traced) - 1
		rep.spans = tr.all()
		rep.samples["traced_rounds"] = len(traced)
	}
	return rep, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// controlLayers derives the per-layer times of the traced rounds. The
// server metrics describe the serve phase, whose handlers do no
// journal I/O; the self-time shares cover both phases, with the journal
// phase's append and seal time moved from the server's self time to
// the durable layer's.
func controlLayers(m map[string]float64, rounds []controlRound) {
	var spans, serve []span
	var appendS, sealS float64
	for _, r := range rounds {
		spans = append(append(spans, r.serveSpans...), r.journalSpans...)
		serve = append(serve, r.serveSpans...)
		appendS += scrapeSum(r.journal.scrape, "meryn_journal_append_seconds_sum")
		sealS += scrapeSum(r.journal.scrape, "meryn_snapshot_seal_seconds_sum")
	}
	byID := make(map[int64]span, len(serve))
	for _, s := range serve {
		byID[s.ID] = s
	}
	handler := map[string][]float64{}
	var clientGap, apply []float64
	for _, s := range serve {
		d := float64(s.End-s.Start) / 1e6
		switch {
		case s.Layer == "server" && s.Name != "server.New":
			handler[s.Name] = append(handler[s.Name], d)
			if p, ok := byID[s.Parent]; ok {
				clientGap = append(clientGap, float64(p.End-p.Start)/1e6-d)
			}
		case s.Layer == "core" && s.Name == "OnMutate":
			apply = append(apply, d)
		}
	}
	for _, route := range []string{"submit", "accept", "status", "vcs"} {
		m["server.handler_ms."+route] = mean(handler[route])
	}
	m["server.client_ms"] = mean(clientGap)
	m["server.apply_ms"] = mean(apply)
	mutations := float64(len(handler["submit"]) + len(handler["accept"]))
	m["server.other_ms"] = (mean(handler["submit"])*float64(len(handler["submit"])) +
		mean(handler["accept"])*float64(len(handler["accept"])) -
		mean(apply)*float64(len(apply))) / max(1, mutations)
	if ev := m["sim.events"]; ev > 0 {
		m["sim.ns_per_event"] = mean(apply) * 1e6 * float64(len(apply)) / float64(len(rounds)) / ev
	}

	self, roots := selfTimes(spans)
	ioNS := (appendS + sealS) * 1e9
	self["server"] -= ioNS
	self["durable"] += ioNS
	for _, l := range []string{"core", "server", "durable", "http_client"} {
		m["self_frac."+l] = self[l] / roots
	}
	m["self_frac.residual"] = self["bench"] / roots
}
