// Command meryn-bench regenerates the paper's evaluation artifacts:
// Table 1, Figures 5(a)/(b) and 6(a)/(b), and the DESIGN.md ablations,
// plus parallel matrix sweeps with mean ±CI aggregation.
//
// Usage:
//
//	meryn-bench                 # run everything
//	meryn-bench -exp fig5       # one experiment
//	meryn-bench -list           # list experiments
//	meryn-bench -seed 7 -out report.txt
//	meryn-bench -exp table1 -reps 50 -workers 8
//	meryn-bench -sweep "policy=meryn,static load=35,50,65 reps=5"
//	meryn-bench -exp sweep -json results.json
//	meryn-bench -exp fig5 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"meryn/internal/exp"
)

func main() {
	var (
		expName    = flag.String("exp", "all", "experiment to run (see -list)")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		list       = flag.Bool("list", false, "list available experiments")
		outPath    = flag.String("out", "", "write the report to a file instead of stdout")
		workers    = flag.Int("workers", 0, "parallel simulation workers (0 = all cores)")
		reps       = flag.Int("reps", 0, "seed replications for sampling experiments (0 = default)")
		jsonPath   = flag.String("json", "", "also write machine-readable JSON to this file (- for stdout)")
		sweepSpec  = flag.String("sweep", "", `run a custom matrix sweep, e.g. "policy=meryn,static load=35,50 reps=5" (overrides -exp)`)
		shards     = flag.Int("shards", 0, "core shard count for every experiment platform (0 = per-experiment default); outputs match the unsharded run only for shard-local workloads like the scale experiment: on the paper's workloads cross-shard effects land at window barriers and shift timings")
		scaleApps  = flag.String("scale-apps", "", `comma-separated app counts for the scale experiment, e.g. "1000,100000,1000000"`)
		scaleBench = flag.Bool("scale-bench", false, "scale experiment: benchmark mode (each app count at shards 1/4/8, wall-clock recorded)")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()
	jsonErrPath = *jsonPath

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuProfiling = true
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-12s %s\n", e.Name, e.Artifact)
		}
		return
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	if *shards < 0 {
		fatal(fmt.Errorf("invalid -shards %d: must be >= 0", *shards))
	}
	opt := exp.Options{Workers: *workers, Reps: *reps, Shards: *shards, ScaleBench: *scaleBench}
	if *scaleApps != "" {
		ladder, err := exp.ParseAppsList(*scaleApps)
		if err != nil {
			fatal(err)
		}
		opt.ScaleApps = ladder
	}

	// named JSON results accumulate in run order for -json.
	type namedResult struct {
		Name   string `json:"name"`
		Result any    `json:"result"`
	}
	var jsonResults []namedResult

	run := func(name, artifact string, seed int64, do func() (exp.Renderable, error)) {
		fmt.Fprintf(out, "=== %s — %s (seed %d) ===\n\n", name, artifact, seed)
		r, err := do()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Fprintln(out, r.Render())
		if *jsonPath != "" {
			jsonResults = append(jsonResults, namedResult{Name: name, Result: r})
		}
	}

	switch {
	case *sweepSpec != "":
		m, err := exp.ParseMatrix(*sweepSpec)
		if err != nil {
			fatal(err)
		}
		base := *seed
		if m.BaseSeed != 0 { // spec's seed= wins over -seed
			base = m.BaseSeed
		}
		run(m.Name, "custom matrix sweep", base, func() (exp.Renderable, error) {
			return m.RunAt(base, opt)
		})
	case *expName == "all":
		for _, e := range exp.All() {
			e := e
			run(e.Name, e.Artifact, *seed, func() (exp.Renderable, error) { return e.Run(*seed, opt) })
		}
	default:
		e, ok := exp.Find(*expName)
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (use -list)", *expName))
		}
		run(e.Name, e.Artifact, *seed, func() (exp.Renderable, error) { return e.Run(*seed, opt) })
	}

	if *jsonPath != "" {
		b, err := json.MarshalIndent(jsonResults, "", "  ")
		if err != nil {
			fatal(err)
		}
		b = append(b, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(b)
		} else if err := os.WriteFile(*jsonPath, b, 0o644); err != nil {
			fatal(err)
		}
	}
}

// cpuProfiling records that a CPU profile is in flight, so fatal can
// flush its trailer before os.Exit skips the deferred stop.
var cpuProfiling bool

// jsonErrPath mirrors -json so fatal can leave a machine-readable
// {"error": "..."} object where consumers expect the results.
var jsonErrPath string

func fatal(err error) {
	if cpuProfiling {
		pprof.StopCPUProfile()
	}
	if jsonErrPath != "" {
		_ = exp.WriteJSONError(jsonErrPath, err, os.Stdout)
	}
	fmt.Fprintln(os.Stderr, "meryn-bench:", err)
	os.Exit(1)
}
