package exp

import (
	"fmt"
	"strconv"
	"strings"

	"meryn/internal/core"
	"meryn/internal/sim"
	"meryn/internal/workload"
)

// SweepGrid is the stock sweep behind `meryn-bench -exp sweep` and
// `meryn-sim -sweep` without a spec: the paper's scenario across policy x
// arrival rate x cluster size x offered load, here both policies at three
// offered loads and paper arrival rate and pool, five replications.
func SweepGrid() Grid {
	return Grid{
		Name: "policy-load", Title: "Sweep",
		Notes: "cost/completion are mean ±95% CI across reps; seeds derived per cell+rep",
		Axes: []Axis{
			{Key: "policy", Doc: "resource policy", Values: []any{"meryn", "static"}},
			{Key: "interarrival_s", Label: "ia", Doc: "per-stream arrival gap [s]", Values: []any{5.0}},
			{Key: "cluster_size", Label: "cluster", Doc: "private VMs split across the two VCs (0 = paper's 50)", Values: []any{0}},
			{Key: "load", Label: "load", Doc: "applications submitted to VC1 (0 = paper's 50)", Values: []any{35, 50, 65}},
		},
		Reps:  5,
		Build: sweepScenario,
		Measures: []Measure{
			{"cost_units", func(r *core.Results, _ *core.Platform) float64 { return allApps(r).TotalCost }},
			{"completion_s", completion},
			{"mean_exec_s", func(r *core.Results, _ *core.Platform) float64 { return allApps(r).MeanExecTime }},
			{"cloud_spend_units", cloudSpend},
			{"peak_cloud_vms", peakCloud},
			{"deadlines_missed", missed},
		},
		Columns: []Column{
			{Header: "policy", Key: "policy"},
			{Header: "ia [s]", Key: "interarrival_s"},
			{Header: "cluster", Key: "cluster_size", Zero: "paper"},
			{Header: "vc1 apps", Key: "load", Zero: "paper"},
			{Header: "cost [u]", Key: "cost_units"},
			{Header: "completion [s]", Key: "completion_s"},
			{Header: "peak cloud", Key: "peak_cloud_vms"},
			{Header: "missed", Key: "deadlines_missed", Digits: 1, Mean: true},
		},
	}
}

// sweepScenario builds the paper's run for one sweep cell.
func sweepScenario(c Cell, seed int64) Scenario {
	policy := core.PolicyMeryn
	if c[0] == core.PolicyStatic.String() {
		policy = core.PolicyStatic
	}
	wcfg := workload.DefaultPaperConfig()
	wcfg.Interarrival = sim.Seconds(c[1].(float64))
	if load := c[3].(int); load > 0 {
		vc2 := wcfg.Apps - wcfg.VC1Apps
		wcfg.VC1Apps = load
		wcfg.Apps = load + vc2
	}
	cluster := c[2].(int)
	return Scenario{
		Policy:   policy,
		Seed:     seed,
		Workload: workload.Paper(wcfg),
		Mutate: func(cfg *core.Config) {
			if cluster > 0 {
				cfg.PrivateVMCap = cluster
				half := cluster / 2
				cfg.VCs[0].InitialVMs = half
				cfg.VCs[1].InitialVMs = cluster - half
				// Scale the physical site with the requested pool: the
				// paper's 9 nodes cap out at 54 default-shape VMs.
				perNode := min(cfg.Site.CoresPerNode/cfg.Shape.Cores,
					cfg.Site.MemoryMBPerNode/cfg.Shape.MemoryMB)
				if perNode < 1 {
					perNode = 1
				}
				if need := (cluster + perNode - 1) / perNode; need > cfg.Site.Nodes {
					cfg.Site.Nodes = need
				}
			}
		},
	}
}

// ParseMatrix builds a sweep grid from a compact CLI spec: space- or
// semicolon-separated key=value pairs with comma-separated values, e.g.
//
//	"policy=meryn,static interarrival=4,5,7 cluster=50,60 load=50 reps=5"
//
// Keys: policy, interarrival (seconds), cluster, load, reps, seed, name.
// Each axis key replaces that axis of SweepGrid, in spec order; an empty
// spec yields SweepGrid itself.
func ParseMatrix(spec string) (Grid, error) {
	g := SweepGrid()
	fields := strings.FieldsFunc(spec, func(r rune) bool { return r == ' ' || r == ';' })
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || v == "" {
			return g, fmt.Errorf("exp: sweep spec %q: want key=v1,v2,...", f)
		}
		vals := strings.Split(v, ",")
		switch k {
		case "policy", "policies":
			var policies []any
			for _, s := range vals {
				if s != core.PolicyMeryn.String() && s != core.PolicyStatic.String() {
					return g, fmt.Errorf("exp: sweep spec: unknown policy %q", s)
				}
				policies = append(policies, s)
			}
			g.Set("policy", policies...)
		case "interarrival", "ia":
			var ias []any
			for _, s := range vals {
				f, err := strconv.ParseFloat(s, 64)
				if err != nil || f <= 0 {
					return g, fmt.Errorf("exp: sweep spec: bad interarrival %q", s)
				}
				ias = append(ias, f)
			}
			g.Set("interarrival_s", ias...)
		case "cluster", "clusters":
			clusters, ok := parseInts(vals, 2)
			if !ok {
				return g, fmt.Errorf("exp: sweep spec: bad cluster list %q", v)
			}
			g.Set("cluster_size", clusters...)
		case "load", "loads":
			loads, ok := parseInts(vals, 1)
			if !ok {
				return g, fmt.Errorf("exp: sweep spec: bad load list %q", v)
			}
			g.Set("load", loads...)
		case "reps":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return g, fmt.Errorf("exp: sweep spec: bad reps %q", v)
			}
			g.Reps = n
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n == 0 { // 0 would read as "unset" in the CLIs
				return g, fmt.Errorf("exp: sweep spec: bad seed %q", v)
			}
			g.BaseSeed = n
		case "name":
			g.Name = v
		default:
			return g, fmt.Errorf("exp: sweep spec: unknown key %q", k)
		}
	}
	return g, nil
}

// parseInts parses an axis value list of ints of at least min,
// preserving spec order (cell order in reports follows the spec).
func parseInts(vals []string, min int) ([]any, bool) {
	var out []any
	for _, s := range vals {
		n, err := strconv.Atoi(s)
		if err != nil || n < min {
			return nil, false
		}
		out = append(out, n)
	}
	return out, true
}
