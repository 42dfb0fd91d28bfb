// Command perfbench is the repository's benchmark: one seeded workload
// per invocation, measured for a fixed number of seconds, checked by a
// correctness gate, and reported as one JSON line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload mixed-burst --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the final line carries every end-to-end metric; with
// --trace 1 a separate traced run carries every per-layer metric and
// writes its spans to the output directory. Earlier lines record the
// environment, per-run digests, sample counts and gate errors. The
// process exits non-zero when the gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Seeds: claims are made on defaultSeed and must also hold on
// heldOutSeed, which is not used while a change is being written.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the untraced metrics every workload reports. They
// must agree with BENCHMARK.json's end_to_end list (checked by a test).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"apps_per_s", "1/s"},
	{"heap_peak_mb", "MB"},
	{"mutate_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"recovery_s", "s"},
	{"sim.profit", "units"},
	{"sim.deadline_met_frac", "frac"},
	{"sim.slo_attainment", "frac"},
}

// perLayer lists the traced metrics every workload reports. A layer a
// workload does not exercise reports 0. They must agree with
// BENCHMARK.json's per_layer list (checked by a test).
var perLayer = []metricDef{
	// The end-to-end tails, reported without a bound: on a shared
	// 2-vCPU VM they swing two- to four-fold with host contention.
	{"latency.mutate_p99_ms", "ms"},
	{"latency.read_p99_ms", "ms"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"core.submit_s", "s"},
	{"core.drain_s", "s"},
	{"core.bid_rounds", "count"},
	{"core.vm_transfers", "count"},
	{"core.suspensions", "count"},
	{"core.neg_rounds", "count"},
	{"core.audit_checks", "count"},
	{"core.audit_call_ms", "ms"},
	{"core.audit_share", "frac"},
	{"core.digest_ms", "ms"},
	{"cloud.leases", "count"},
	{"cloud.spend", "units"},
	{"framework.cold_starts", "count"},
	{"framework.replica_scaleouts", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_bytes_per_app", "B"},
	{"runtime.mallocs_per_app", "count"},
	{"server.handler_ms.submit", "ms"},
	{"server.handler_ms.accept", "ms"},
	{"server.handler_ms.status", "ms"},
	{"server.handler_ms.vcs", "ms"},
	{"server.client_ms", "ms"},
	{"server.apply_ms", "ms"},
	{"server.other_ms", "ms"},
	{"server.shed", "count"},
	{"durable.append_ms", "ms"},
	{"durable.fsync_ms", "ms"},
	{"durable.fsyncs_per_mutation", "count"},
	{"durable.mutate_ms", "ms"},
	{"durable.seal_ms", "ms"},
	{"durable.seals", "count"},
	{"durable.snapshot_bytes", "B"},
	{"durable.replay_records_per_s", "1/s"},
	{"self_frac.core", "frac"},
	{"self_frac.server", "frac"},
	{"self_frac.durable", "frac"},
	{"self_frac.http_client", "frac"},
	{"self_frac.residual", "frac"},
	{"trace.overhead_frac", "frac"},
	{"host.slowdown", "x"},
	{"host.lat_slowdown", "x"},
}

// options configure one invocation.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string  // state directories and trace files go here
	size    float64 // input size multiplier; 1 in real runs, small in self-tests
}

// report is what a workload hands back: every metric it measured, plus
// the details printed ahead of the result line.
type report struct {
	metrics     map[string]float64
	digests     []string
	runSeconds  []float64          // the throughput-defining CPU time of every run or round
	wallSeconds []float64          // the same stretch in wall time, for comparison
	raw         map[string]float64 // host-time metrics before scaling by the host slowdown
	hostRefMS   []float64          // reference work timings
	hostLatMS   []float64          // reference lookup latencies
	samples     map[string]int
	spans       []span
}

// workloadFunc runs one workload for o.seconds and records gate
// outcomes in g.
type workloadFunc func(o options, g *gate) (*report, error)

var workloads = map[string]workloadFunc{
	"mixed-burst":     runMixedBurst,
	"control-durable": runControlDurable,
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: mixed-burst or control-durable")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outDir := fs.String("out", ".bench_build/perfbench-out", "directory for state directories and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// One P: the simulator runs on one goroutine, and with a second P
	// the collector's idle mark workers fill the host's spare vCPU, so
	// process CPU time would rise and fall with what the neighbours
	// leave idle.
	runtime.GOMAXPROCS(1)
	o := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, outDir: *outDir, size: 1}
	res, detail, err := measure(*name, fn, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	_ = enc.Encode(map[string]any{"env": environment(*outDir)})
	_ = enc.Encode(detail)
	_ = enc.Encode(res)
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness gate failed")
		return 1
	}
	return 0
}

// measure runs one workload and assembles the result line and the
// detail line printed before it.
func measure(name string, fn workloadFunc, o options) (result, map[string]any, error) {
	g := &gate{}
	rep, err := fn(o, g)
	if err != nil {
		return result{}, nil, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	out := result{Correct: g.ok(), Attempted: g.attempted, Failed: g.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok && !o.trace && g.ok() {
			// A failed gate may stop a run before every metric exists;
			// otherwise a missing end-to-end metric is a benchmark bug.
			return result{}, nil, fmt.Errorf("%s: end-to-end metric %s not measured", name, d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if out.Attempted < 1 {
		return result{}, nil, fmt.Errorf("%s: no operation attempted", name)
	}
	detail := map[string]any{
		"workload":         name,
		"seed":             o.seed,
		"held_out":         o.seed == heldOutSeed,
		"trace":            o.trace,
		"digests":          rep.digests,
		"run_seconds":      rep.runSeconds,
		"run_wall_seconds": rep.wallSeconds,
		"samples":          rep.samples,
		"unscaled":         rep.raw,
		"host_ref_ms":      rep.hostRefMS,
		"host_lat_ref_ms":  rep.hostLatMS,
		"gate_errors":      g.errs,
	}
	if o.trace {
		path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-%d.json", name, o.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			return result{}, nil, err
		}
		detail["trace_file"] = path
		detail["spans"] = len(rep.spans)
	}
	return out, detail, nil
}

// environment records what a reader needs to compare results across
// machines.
func environment(stateDir string) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"host":          host,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"os_arch":       runtime.GOOS + "/" + runtime.GOARCH,
		"state_dir_fs":  fsType(stateDir),
		"started_utc":   time.Now().UTC().Format(time.RFC3339),
		"default_seed":  defaultSeed,
		"held_out_seed": heldOutSeed,
	}
}

// gate counts attempted and failed operations and keeps the first
// failures' descriptions.
type gate struct {
	attempted, failed int64
	errs              []string
}

// op records one operation's outcome.
func (g *gate) op(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.fail(format, args...)
	}
}

// fail records one failed operation that was already counted as
// attempted.
func (g *gate) fail(format string, args ...any) {
	g.failed++
	if len(g.errs) < 20 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

func (g *gate) ok() bool { return g.failed == 0 }
