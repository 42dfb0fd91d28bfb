package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"meryn/internal/workload"
)

// tiny returns options for a fast run of any workload.
func tiny(t *testing.T, trace bool) options {
	return options{seed: 3, seconds: 0.001, trace: trace, outDir: t.TempDir(), size: 0.01}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables the
// program reports in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the program", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks the gate passes and every metric is reported.
func TestWorkloadsTiny(t *testing.T) {
	for name, fn := range workloads {
		for _, trace := range []bool{false, true} {
			o := tiny(t, trace)
			res, detail, err := measure(name, fn, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: gate failed: %+v %v", name, trace, res, detail["gate_errors"])
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v", name, trace, d.Name, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, v.Value)
				}
			}
			if trace {
				if _, err := os.Stat(detail["trace_file"].(string)); err != nil {
					t.Errorf("%s: trace file: %v", name, err)
				}
			}
		}
	}
}

// TestGateTripsOnDigestMismatch feeds the simulator loop runs whose
// inputs differ, so their digests disagree.
func TestGateTripsOnDigestMismatch(t *testing.T) {
	calls := int64(0)
	wl := mixedBurst
	wl.inputs = func(seed int64, size float64) workload.Workload {
		calls++
		return mixedBurst.inputs(seed+calls, size)
	}
	g := &gate{}
	if _, err := runSim(wl, tiny(t, false), g); err != nil {
		t.Fatal(err)
	}
	if g.ok() || !strings.Contains(strings.Join(g.errs, "\n"), "digest") {
		t.Fatalf("gate passed runs with different digests: %+v", g)
	}
}

// TestGateTripsOnFailedRequest sends an application the control plane
// must refuse: the 4xx answer and the unfinished session both count.
func TestGateTripsOnFailedRequest(t *testing.T) {
	inputs := controlInputs(3, 1, 2)
	inputs[0][1].VC = "no-such-vc"
	g := &gate{}
	if _, err := controlRoundRun(tiny(t, false), inputs, inputs, nil, g); err != nil {
		t.Fatal(err)
	}
	// Both phases send the refused app.
	if g.failed != 4 {
		t.Fatalf("failed = %d, want 4 (per phase one refused request and one unfinished session): %v", g.failed, g.errs)
	}
}

// TestRunRejectsBadFlags checks usage errors exit non-zero without a
// result line.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "mixed-burst", "--trace", "2"},
		{"--workload", "mixed-burst", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
