package exp

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

	"meryn/internal/core"
	"meryn/internal/metrics"
	"meryn/internal/report"
	"meryn/internal/stats"
)

// Options tunes how experiments execute. The zero value means defaults
// everywhere: one worker per core, each experiment's native sample count.
type Options struct {
	// Workers bounds the worker pool (0 = GOMAXPROCS).
	Workers int
	// Reps overrides the seed-replication count for experiments that
	// sample (Table 1, grids). 0 keeps the experiment's default.
	Reps int
	// Shards sets core.Config.Shards on every experiment platform
	// (0 keeps each scenario's own setting; 1 is the single-engine
	// default). Outputs are shard-invariant only for workloads whose
	// protocol stays shard-local, such as the scale experiment: on the
	// paper's workloads cross-shard effects land at the window barrier
	// instead of their own instant, so Table 1, Figure 6 and the grids
	// drift with the shard count (ROADMAP item 1).
	Shards int
	// ScaleApps overrides the scale experiment's application-count
	// ladder (nil = the smoke ladder).
	ScaleApps []int
	// ScaleBench switches the scale experiment into benchmark mode:
	// every app count runs at shard counts 1, 4 and 8 with wall-clock
	// timing recorded. Timings are honest measurements and belong in
	// BENCH artifacts only; invariant outputs never include them.
	ScaleBench bool
}

// Pool is a bounded worker pool for independent simulation runs. Each
// simulation is single-threaded, so grids scale with cores; the pool
// bounds peak memory (each in-flight run holds a full platform).
type Pool struct {
	// Workers is the concurrency bound (0 = GOMAXPROCS).
	Workers int
}

// Each runs fn(0..n-1) across the pool and waits for all of them, even
// when some fail. It returns the error from the lowest index, so the
// reported failure is independent of worker count and scheduling.
func (p Pool) Each(n int, fn func(i int) error) error {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errIdx, firstErr := -1, error(nil)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && errIdx == -1 {
				errIdx, firstErr = i, err
			}
		}
	} else {
		var mu sync.Mutex
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					if err := fn(i); err != nil {
						mu.Lock()
						if errIdx == -1 || i < errIdx {
							errIdx, firstErr = i, err
						}
						mu.Unlock()
					}
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	if errIdx >= 0 {
		return fmt.Errorf("exp: run %d: %w", errIdx, firstErr)
	}
	return nil
}

// RunScenarios executes n independently-built scenarios on a bounded
// worker pool and returns their results in index order, so downstream
// aggregation is deterministic whatever the worker count. The
// reproduction experiments (Table 1, figures, ablations) run their unit
// lists through it; grids run through Grid.Run.
func RunScenarios(n int, opt Options, build func(i int) Scenario) ([]*core.Results, error) {
	out := make([]*core.Results, n)
	err := Pool{Workers: opt.Workers}.Each(n, func(i int) error {
		r, _, err := build(i).execute(opt)
		out[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// execute runs the scenario under the Options-level platform settings
// (the -shards override applies unless the scenario pins its own) and
// names the scenario in its error.
func (s Scenario) execute(opt Options) (*core.Results, *core.Platform, error) {
	if s.Shards == 0 {
		s.Shards = opt.Shards
	}
	r, p, err := s.RunWithPlatform()
	if err != nil && s.Label != "" {
		err = fmt.Errorf("%s: %w", s.Label, err)
	}
	return r, p, err
}

// DeriveSeed maps a base seed and a stable run name to an independent
// deterministic seed. Like sim.NewRNG's stream derivation, it decouples
// every run's randomness from grid enumeration order: adding an axis
// value or changing Reps never perturbs the draws of existing runs.
func DeriveSeed(base int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64()) ^ base
}

// Metric is the cross-replication aggregate of one measured quantity:
// sample mean, 95% confidence half-width (Student t) and observed range.
type Metric struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// metricOf condenses a summary.
func metricOf(s *stats.Summary) Metric {
	return Metric{Mean: s.Mean(), CI95: s.CI95(), Min: s.Min(), Max: s.Max()}
}

// Axis is one ordered dimension of a Grid.
type Axis struct {
	// Key names the axis value in every JSON cell.
	Key string
	// Label names the value in the run's seed key: "vol" makes
	// "vol=0.2"; empty leaves the bare value.
	Label string
	// Doc describes the axis in meryn-sim -list.
	Doc string
	// Values are the axis points in order: strings, float64s or ints.
	// Seed keys write them with %v, JSON with encoding/json.
	Values []any
	// Only, when set, limits the axis to the cells whose earlier axis
	// values it accepts. Every other cell takes the axis's zero value
	// once instead of each value, and its JSON leaves the key out.
	Only func(Cell) bool
}

// Cell is one grid point: a value per axis, in axis order.
type Cell []any

// Measure is a named per-run quantity. A grid condenses each measure
// over a cell's replications into a Metric.
type Measure struct {
	Key string
	Of  func(r *core.Results, p *core.Platform) float64
}

// Column is one column of a grid's rendered table, showing the axis or
// measure named Key. An axis value prints with %v, or as Zero when Zero
// is set and the value is zero. A metric prints its mean with Digits
// decimals, followed by ±CI95 unless Mean is set or a cell has one rep.
type Column struct {
	Header string
	Key    string
	Digits int
	Mean   bool
	Zero   string
}

// Grid declares an experiment grid: ordered axes crossed cell-major,
// Reps replications per cell kept adjacent, each run seeded from its
// own key and built into a Scenario, and named measures condensed per
// cell into Metrics. Results are identical whatever the worker count.
type Grid struct {
	// Name labels reports and JSON output.
	Name string
	// Title heads the report; lower-cased it is the experiment's name.
	Title string
	// Prefix starts every seed key, e.g. "spot/".
	Prefix string
	// About is the report line under the heading; Notes follow the table.
	About, Notes string
	Axes         []Axis
	// Reps is the number of seed replications per cell (below 1 means 1).
	Reps int
	// BaseSeed feeds DeriveSeed for every run (0 means 1).
	BaseSeed int64
	// Build makes the scenario of one run from its cell and seed.
	Build    func(c Cell, seed int64) Scenario
	Measures []Measure
	Columns  []Column
}

// Run is one expanded grid replication. Its seed derives from Key: the
// grid's Prefix, the cell's axis values and the rep, joined by "/".
type Run struct {
	Cell Cell
	Key  string
	Seed int64
}

// Axis returns the axis named key.
func (g Grid) Axis(key string) Axis { return g.Axes[g.axis(key)] }

// Set replaces the values of the axis named key, leaving the axes of
// any copy of g untouched.
func (g *Grid) Set(key string, values ...any) {
	i := g.axis(key)
	g.Axes = slices.Clone(g.Axes)
	g.Axes[i].Values = values
}

func (g Grid) axis(key string) int {
	return slices.IndexFunc(g.Axes, func(a Axis) bool { return a.Key == key })
}

func (g Grid) measure(key string) int {
	return slices.IndexFunc(g.Measures, func(m Measure) bool { return m.Key == key })
}

// normalized applies the Reps and BaseSeed defaults.
func (g Grid) normalized() Grid {
	g.Reps = max(g.Reps, 1)
	g.BaseSeed = cmp.Or(g.BaseSeed, 1)
	return g
}

// Expand enumerates the grid cell-major, first axis outermost, with each
// cell's replications adjacent and every run carrying its derived seed.
func (g Grid) Expand() []Run {
	g = g.normalized()
	cells := []Cell{{}}
	for _, a := range g.Axes {
		var next []Cell
		for _, c := range cells {
			vals := a.Values
			if a.Only != nil && !a.Only(c) {
				vals = []any{reflect.Zero(reflect.TypeOf(a.Values[0])).Interface()}
			}
			for _, v := range vals {
				next = append(next, append(slices.Clip(c), v))
			}
		}
		cells = next
	}
	var runs []Run
	for _, c := range cells {
		parts := make([]string, len(c))
		for i, v := range c {
			parts[i] = fmt.Sprint(v)
			if g.Axes[i].Label != "" {
				parts[i] = g.Axes[i].Label + "=" + parts[i]
			}
		}
		for rep := 0; rep < g.Reps; rep++ {
			key := fmt.Sprintf("%s%s/rep=%d", g.Prefix, strings.Join(parts, "/"), rep)
			runs = append(runs, Run{Cell: c, Key: key, Seed: DeriveSeed(g.BaseSeed, key)})
		}
	}
	return runs
}

// Run executes every run of the grid on the worker pool and condenses
// each cell's measures over its replications. Options.Reps, when set,
// overrides the grid's Reps.
func (g Grid) Run(opt Options) (*Result, error) {
	if opt.Reps > 0 {
		g.Reps = opt.Reps
	}
	g = g.normalized()
	runs := g.Expand()
	vals := make([][]float64, len(runs))
	err := Pool{Workers: opt.Workers}.Each(len(runs), func(i int) error {
		s := g.Build(runs[i].Cell, runs[i].Seed)
		s.Label = runs[i].Key
		r, p, err := s.execute(opt)
		if err != nil {
			return err
		}
		vals[i] = make([]float64, len(g.Measures))
		for j, m := range g.Measures {
			vals[i][j] = m.Of(r, p)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("exp: %s %q: %w", strings.ToLower(g.Title), g.Name, err)
	}

	res := &Result{Name: g.Name, BaseSeed: g.BaseSeed, Reps: g.Reps, Runs: len(runs), grid: &g}
	for i := 0; i < len(runs); i += g.Reps {
		sums := make([]stats.Summary, len(g.Measures))
		for _, row := range vals[i : i+g.Reps] {
			for j, v := range row {
				sums[j].Add(v)
			}
		}
		c := CellResult{Cell: runs[i].Cell, Metrics: make([]Metric, len(sums)), grid: &g}
		for j := range sums {
			c.Metrics[j] = metricOf(&sums[j])
		}
		res.Cells = append(res.Cells, c)
	}
	return res, nil
}

// RunAt runs g at base seed seed. Unlike the BaseSeed field, whose zero
// value means 1, seed 0 here is an error: the CLIs pass their -seed
// through, and running seed 1 under a "seed 0" heading would misreport
// the run.
func (g Grid) RunAt(seed int64, opt Options) (*Result, error) {
	if seed == 0 {
		return nil, fmt.Errorf("exp: %s %q: base seed 0 is not supported; grid seeds start at 1", strings.ToLower(g.Title), g.Name)
	}
	g.BaseSeed = seed
	return g.Run(opt)
}

// Result is an executed grid: one CellResult per cell, in expansion
// order, so rendering and JSON are byte-identical whatever the worker
// count.
type Result struct {
	Name     string
	BaseSeed int64
	Reps     int
	Runs     int
	Cells    []CellResult
	grid     *Grid
}

// CellResult is one aggregated grid cell.
type CellResult struct {
	Cell    Cell
	Metrics []Metric // in the grid's Measures order
	grid    *Grid
}

// Value returns the cell's value on the axis named key.
func (c CellResult) Value(key string) any { return c.Cell[c.grid.axis(key)] }

// Metric returns the cell's aggregate of the measure named key.
func (c CellResult) Metric(key string) Metric { return c.Metrics[c.grid.measure(key)] }

// MarshalJSON writes the result with its keys in declaration order:
// name, base_seed, reps, runs, then per cell the axis values, the reps
// and the metrics.
func (r *Result) MarshalJSON() ([]byte, error) {
	cells := make([]object, len(r.Cells))
	for i, c := range r.Cells {
		for j, a := range r.grid.Axes {
			if a.Only == nil || a.Only(c.Cell[:j]) {
				cells[i] = append(cells[i], field{a.Key, c.Cell[j]})
			}
		}
		cells[i] = append(cells[i], field{"reps", r.Reps})
		for j, m := range r.grid.Measures {
			cells[i] = append(cells[i], field{m.Key, c.Metrics[j]})
		}
	}
	return json.Marshal(object{
		{"name", r.Name}, {"base_seed", r.BaseSeed}, {"reps", r.Reps}, {"runs", r.Runs}, {"cells", cells},
	})
}

// JSON returns the machine-readable form, indented.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render implements Renderable: the heading, the declared columns as a
// fixed-width table, and the grid's notes.
func (r *Result) Render() string {
	g := r.grid
	var b strings.Builder
	fmt.Fprintf(&b, "%s %q: %d cells x %d reps (base seed %d)\n", g.Title, r.Name, len(r.Cells), r.Reps, r.BaseSeed)
	if g.About != "" {
		b.WriteString(g.About + "\n")
	}
	b.WriteString("\n")
	var t report.Table
	for _, col := range g.Columns {
		t.Headers = append(t.Headers, col.Header)
	}
	for _, c := range r.Cells {
		row := make([]string, len(g.Columns))
		for i, col := range g.Columns {
			row[i] = c.format(col, r.Reps)
		}
		t.AddRow(row...)
	}
	_ = t.Render(&b)
	b.WriteString("\n" + g.Notes + "\n")
	return b.String()
}

// format renders the cell's entry in one column.
func (c CellResult) format(col Column, reps int) string {
	if i := c.grid.axis(col.Key); i >= 0 {
		v := c.Cell[i]
		if col.Zero != "" && reflect.ValueOf(v).IsZero() {
			return col.Zero
		}
		return fmt.Sprint(v)
	}
	m := c.Metric(col.Key)
	if col.Mean || reps < 2 {
		return strconv.FormatFloat(m.Mean, 'f', col.Digits, 64)
	}
	return fmt.Sprintf("%.*f ±%.*f", col.Digits, m.Mean, col.Digits, m.CI95)
}

// object is a JSON object that keeps its keys in the order given.
type object []field

type field struct {
	key string
	val any
}

func (o object) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, f := range o {
		if i > 0 {
			b.WriteByte(',')
		}
		k, err := json.Marshal(f.key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(f.val)
		if err != nil {
			return nil, err
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// Extractors shared by several grids' measures.

func allApps(r *core.Results) metrics.Aggregate { return metrics.AggregateRecords(r.Ledger.All()) }

func penalty(r *core.Results, _ *core.Platform) float64 { return allApps(r).TotalPenalty }

func missed(r *core.Results, _ *core.Platform) float64 {
	return float64(allApps(r).DeadlinesMissed)
}

func completion(r *core.Results, _ *core.Platform) float64 { return r.CompletionTime }

func cloudSpend(r *core.Results, _ *core.Platform) float64 { return r.CloudSpend }

func peakCloud(r *core.Results, _ *core.Platform) float64 { return r.CloudSeries.Max() }

func revocations(r *core.Results, _ *core.Platform) float64 {
	return float64(r.Counters.SpotRevocations.Count)
}
