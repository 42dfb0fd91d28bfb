package exp

import (
	"bytes"
	"strings"
	"testing"
)

// smallServerlessMatrix is the CI-sized grid: one gap, one cold-start
// cost, both concurrency targets, two reps.
func smallServerlessMatrix() Grid {
	g := ServerlessGrid()
	g.Name = "serverless-smoke"
	g.Set("idle_gap_s", 120.0)
	g.Set("cold_start_s", 5.0)
	g.Set("conc_target", 1.0, 2.0)
	g.Reps = 2
	g.BaseSeed = 1
	return g
}

// TestServerlessJSONWorkerInvariance is the harness determinism
// guarantee extended to the serverless grid: byte-identical JSON
// whatever the worker count, even though the canary rollout and the
// revision tallies are read back from per-run platform state.
func TestServerlessJSONWorkerInvariance(t *testing.T) {
	m := smallServerlessMatrix()
	r1, err := m.Run(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := m.Run(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j4, err := r4.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j4) {
		t.Fatal("serverless sweep JSON differs across worker counts")
	}
}

func TestServerlessGridShape(t *testing.T) {
	res, err := smallServerlessMatrix().Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	if res.Runs != 4 {
		t.Fatalf("runs = %d, want 4", res.Runs)
	}
	for _, c := range res.Cells {
		// Scale-to-zero happened and was paid for: activations,
		// zero-scales and cold starts are all present, and the canary
		// revision took real traffic with its own cold starts.
		if c.Metric("activations").Mean < 2 || c.Metric("zero_scales").Mean < 1 || c.Metric("cold_starts").Mean <= 0 {
			t.Fatalf("cell %+v: scale-to-zero lifecycle missing", c)
		}
		if c.Metric("canary_requests_v2").Mean <= 0 || c.Metric("canary_cold_starts").Mean <= 0 {
			t.Fatalf("cell %+v: canary revision never served", c)
		}
		// Cold-start delay is charged against the SLO: attainment sits
		// strictly inside (0, 1).
		if att := c.Metric("slo_attainment").Mean; att <= 0 || att >= 1 {
			t.Fatalf("cell %+v: attainment %g, want in (0,1)", c, att)
		}
		if c.Metric("metered_units").Mean <= 0 || c.Metric("served_requests").Mean <= 0 {
			t.Fatalf("cell %+v: invocation accounting missing", c)
		}
	}
	out := res.Render()
	for _, want := range []string{"gap [s]", "cold starts", "zero scales", "v2 reqs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
