package exp

import (
	"bytes"
	"strings"
	"testing"
)

// smallServicesMatrix is the CI-sized grid: nominal load under bursts,
// both replica policies, two reps.
func smallServicesMatrix() Grid {
	g := ServicesGrid()
	g.Set("load_mult", 1.0)
	g.Set("policy", ReplicaPolicyNoop, ReplicaPolicyScaleOut)
	g.Set("burst_amp", 2.5)
	g.Reps = 2
	g.BaseSeed = 1
	return g
}

func TestServicesExperimentRegistered(t *testing.T) {
	e, ok := Find("services")
	if !ok {
		t.Fatal("services experiment not registered")
	}
	if !strings.Contains(e.Artifact, "latency-SLO") {
		t.Fatalf("artifact = %q", e.Artifact)
	}
}

// TestServicesJSONWorkerInvariance is the harness determinism
// guarantee extended to the services grid: byte-identical JSON whatever
// the worker count.
func TestServicesJSONWorkerInvariance(t *testing.T) {
	m := smallServicesMatrix()
	m.BaseSeed = 3
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
		t.Fatalf("services JSON differs across worker counts:\n%s\nvs\n%s", j1, j4)
	}
}

// TestServicesGridShape checks the grid expands cell-major with
// derived per-run seeds, and the scaleout policy earns its keep under
// bursty load (attainment at least matches noop).
func TestServicesGridShape(t *testing.T) {
	m := smallServicesMatrix()
	runs := m.Expand()
	if len(runs) != 4 {
		t.Fatalf("runs = %d, want 4", len(runs))
	}
	if runs[0].Seed == runs[1].Seed || runs[0].Seed == runs[2].Seed {
		t.Fatal("derived seeds collide across reps/cells")
	}
	res, err := m.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	noop, scaleout := res.Cells[0], res.Cells[1]
	if noop.Value("policy") != ReplicaPolicyNoop || scaleout.Value("policy") != ReplicaPolicyScaleOut {
		t.Fatalf("cell order = %s,%s, want noop,scaleout", noop.Value("policy"), scaleout.Value("policy"))
	}
	for _, c := range res.Cells {
		if att := c.Metric("slo_attainment").Mean; att <= 0 || att > 1 {
			t.Fatalf("%s attainment = %g, want (0,1]", c.Value("policy"), att)
		}
		if cost := c.Metric("cost_units").Mean; cost <= 0 {
			t.Fatalf("%s cost = %g, want > 0", c.Value("policy"), cost)
		}
	}
	if scaleout.Metric("slo_attainment").Mean < noop.Metric("slo_attainment").Mean {
		t.Fatalf("scaleout attainment %.3f below noop %.3f under bursty load",
			scaleout.Metric("slo_attainment").Mean, noop.Metric("slo_attainment").Mean)
	}
	if scaleout.Metric("cloud_frac").Mean == 0 {
		t.Fatal("scaleout policy never burst to the cloud")
	}
	if got := res.Render(); !strings.Contains(got, "slo attain") {
		t.Fatalf("render missing headers:\n%s", got)
	}
}
