package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// gridOutput is what every grid result offers: machine-readable JSON
// and the rendered report.
type gridOutput interface {
	JSON() ([]byte, error)
	Render() string
}

// TestGridGolden pins the JSON and rendered text of the CI-sized grid of
// every experiment to files under testdata/, so a change to the grid
// harness that moves a single byte of output fails here. Regenerate
// with `go test ./internal/exp -run TestGridGolden -update` only when
// an output change is intended.
func TestGridGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func() (gridOutput, error)
	}{
		{"sweep", func() (gridOutput, error) { return fastMatrix().Run(Options{}) }},
		{"services", func() (gridOutput, error) { return smallServicesMatrix().Run(Options{}) }},
		{"serverless", func() (gridOutput, error) { return smallServerlessMatrix().Run(Options{}) }},
		{"spot", func() (gridOutput, error) { return smallSpotMatrix().Run(Options{}) }},
		{"chaos", func() (gridOutput, error) { return smallChaosMatrix().Run(Options{}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			js, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name+".json", js)
			checkGolden(t, tc.name+".txt", []byte(res.Render()))
		})
	}
}

// TestPaperGolden pins the JSON (as meryn-bench -json encodes a
// result) and rendered text of every paper experiment and ablation at
// its default size and seed 1. The paper-band tests only check that
// the numbers stay inside the paper's bands; these files catch any
// byte that moves. Regenerate with
// `go test ./internal/exp -run TestPaperGolden -update` only when an
// output change is intended.
func TestPaperGolden(t *testing.T) {
	for _, name := range []string{"table1", "fig5", "fig6", "penalty-n", "billing", "policies", "market", "suspension", "realistic"} {
		t.Run(name, func(t *testing.T) {
			e, ok := Find(name)
			if !ok {
				t.Fatalf("experiment %q not registered", name)
			}
			res, err := e.Run(1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+".json", append(js, '\n'))
			checkGolden(t, name+".txt", []byte(res.Render()))
		})
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the golden file:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
