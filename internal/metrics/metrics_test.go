package metrics

import (
	"testing"
	"testing/quick"
	"time"

	"meryn/internal/sim"
)

func TestSeriesRecordAndAt(t *testing.T) {
	s := NewSeries("vms")
	s.Record(10*time.Second, 5)
	s.Record(20*time.Second, 8)
	s.Record(30*time.Second, 3)

	cases := []struct {
		t    sim.Time
		want float64
	}{
		{0, 0},
		{9 * time.Second, 0},
		{10 * time.Second, 5},
		{15 * time.Second, 5},
		{20 * time.Second, 8},
		{29 * time.Second, 8},
		{30 * time.Second, 3},
		{time.Hour, 3},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Fatalf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestSeriesSameInstantOverwrites(t *testing.T) {
	s := NewSeries("x")
	s.Record(time.Second, 1)
	s.Record(time.Second, 2)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (overwrite)", s.Len())
	}
	if s.At(time.Second) != 2 {
		t.Fatalf("At = %v, want 2", s.At(time.Second))
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Record did not panic")
		}
	}()
	s := NewSeries("x")
	s.Record(2*time.Second, 1)
	s.Record(time.Second, 1)
}

func TestSeriesMax(t *testing.T) {
	s := NewSeries("x")
	if s.Max() != 0 {
		t.Fatal("empty series Max must be 0")
	}
	s.Record(0, 3)
	s.Record(time.Second, 15)
	s.Record(2*time.Second, 7)
	if s.Max() != 15 {
		t.Fatalf("Max = %v, want 15", s.Max())
	}
}

func TestSeriesIntegral(t *testing.T) {
	s := NewSeries("x")
	s.Record(0, 2)              // 2 for 10s = 20
	s.Record(10*time.Second, 5) // 5 for 10s = 50
	s.Record(20*time.Second, 0) // 0 afterwards
	got := s.Integral(30 * time.Second)
	if got != 70 {
		t.Fatalf("Integral = %v, want 70", got)
	}
}

func TestSeriesIntegralHorizonMidSegment(t *testing.T) {
	s := NewSeries("x")
	s.Record(0, 4)
	got := s.Integral(2500 * time.Millisecond)
	if got != 10 {
		t.Fatalf("Integral = %v, want 10", got)
	}
}

func TestSeriesResample(t *testing.T) {
	s := NewSeries("x")
	s.Record(time.Second, 1)
	s.Record(3*time.Second, 2)
	pts := s.Resample(4*time.Second, time.Second)
	wantVals := []float64{0, 1, 1, 2, 2}
	if len(pts) != len(wantVals) {
		t.Fatalf("got %d points, want %d", len(pts), len(wantVals))
	}
	for i, p := range pts {
		if p.Value != wantVals[i] {
			t.Fatalf("resample[%d] = %v, want %v", i, p.Value, wantVals[i])
		}
	}
}

func TestSeriesResampleBadStepPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Resample(step<=0) did not panic")
		}
	}()
	NewSeries("x").Resample(time.Second, 0)
}

func TestGauge(t *testing.T) {
	g := NewGauge("used")
	g.Add(0, 3)
	g.Add(time.Second, 2)
	g.Add(2*time.Second, -4)
	if g.Value() != 1 {
		t.Fatalf("Value = %d, want 1", g.Value())
	}
	if g.Series().At(time.Second) != 5 {
		t.Fatalf("history wrong: %v", g.Series().Points())
	}
}

func TestGaugeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative gauge did not panic")
		}
	}()
	g := NewGauge("x")
	g.Add(0, -1)
}

func TestCounter(t *testing.T) {
	c := Counter{Name: "bids"}
	c.Inc()
	c.AddN(4)
	if c.Count != 5 {
		t.Fatalf("Count = %d, want 5", c.Count)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddN(-1) did not panic")
		}
	}()
	c := Counter{}
	c.AddN(-1)
}

// Property: the integral of a nonnegative series is nonnegative and
// monotone in the horizon.
func TestPropertyIntegralMonotone(t *testing.T) {
	f := func(vals []uint8) bool {
		s := NewSeries("p")
		for i, v := range vals {
			s.Record(sim.Time(i)*time.Second, float64(v))
		}
		prev := -1.0
		for h := 0; h <= len(vals)+2; h++ {
			cur := s.Integral(sim.Time(h) * time.Second)
			if cur < prev || cur < 0 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAppRecordDerivedQuantities(t *testing.T) {
	r := AppRecord{
		SubmitTime: 10 * time.Second,
		StartTime:  25 * time.Second,
		EndTime:    1575 * time.Second,
		Deadline:   1764 * time.Second,
		Price:      3100,
		Cost:       3100,
	}
	if r.ExecTime() != 1550*time.Second {
		t.Fatalf("ExecTime = %v", r.ExecTime())
	}
	if r.ProcessingTime() != 15*time.Second {
		t.Fatalf("ProcessingTime = %v", r.ProcessingTime())
	}
	if r.TurnaroundTime() != 1565*time.Second {
		t.Fatalf("Turnaround = %v", r.TurnaroundTime())
	}
	if !r.MetDeadline() || r.Delay() != 0 {
		t.Fatal("deadline should be met")
	}
	if r.Revenue() != 3100 {
		t.Fatalf("Revenue = %v", r.Revenue())
	}
	if r.Profit() != 0 {
		t.Fatalf("Profit = %v", r.Profit())
	}
}

func TestAppRecordDelayAndPenalty(t *testing.T) {
	r := AppRecord{
		EndTime:  100 * time.Second,
		Deadline: 80 * time.Second,
		Price:    100,
		Penalty:  150,
	}
	if r.Delay() != 20*time.Second {
		t.Fatalf("Delay = %v", r.Delay())
	}
	if r.MetDeadline() {
		t.Fatal("deadline should be missed")
	}
	if r.Revenue() != 0 {
		t.Fatalf("Revenue = %v, want 0 (floored)", r.Revenue())
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger()
	a := l.Open("app-1")
	a.VC = "vc1"
	b := l.Open("app-2")
	b.VC = "vc2"
	c := l.Open("app-3")
	c.VC = "vc1"

	if l.Get("app-2") != b {
		t.Fatal("Get returned wrong record")
	}
	if l.Get("nope") != nil {
		t.Fatal("Get on unknown id must return nil")
	}
	if len(l.All()) != 3 {
		t.Fatal("All() wrong length")
	}
	if got := l.ByVC("vc1"); len(got) != 2 {
		t.Fatalf("ByVC(vc1) = %d records, want 2", len(got))
	}
	vcs := l.VCs()
	if len(vcs) != 2 || vcs[0] != "vc1" || vcs[1] != "vc2" {
		t.Fatalf("VCs = %v", vcs)
	}
}

func TestLedgerDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Open did not panic")
		}
	}()
	l := NewLedger()
	l.Open("x")
	l.Open("x")
}

func TestAggregateRecords(t *testing.T) {
	l := NewLedger()
	r1 := l.Open("a")
	r1.StartTime = 0
	r1.EndTime = 100 * time.Second
	r1.Deadline = 200 * time.Second
	r1.Price = 10
	r1.Cost = 4
	r1.Placement = PlacementLocal

	r2 := l.Open("b")
	r2.StartTime = 0
	r2.EndTime = 300 * time.Second
	r2.Deadline = 200 * time.Second
	r2.Price = 10
	r2.Penalty = 2
	r2.Cost = 8
	r2.Placement = PlacementCloud
	r2.Suspended = true

	agg := AggregateRecords(l.All())
	if agg.N != 2 {
		t.Fatalf("N = %d", agg.N)
	}
	if agg.MeanExecTime != 200 {
		t.Fatalf("MeanExecTime = %v", agg.MeanExecTime)
	}
	if agg.TotalCost != 12 {
		t.Fatalf("TotalCost = %v", agg.TotalCost)
	}
	if agg.TotalRevenue != 18 {
		t.Fatalf("TotalRevenue = %v", agg.TotalRevenue)
	}
	if agg.TotalProfit != 6 {
		t.Fatalf("TotalProfit = %v", agg.TotalProfit)
	}
	if agg.DeadlinesMissed != 1 {
		t.Fatalf("DeadlinesMissed = %d", agg.DeadlinesMissed)
	}
	if agg.CompletionTime != 300 {
		t.Fatalf("CompletionTime = %v", agg.CompletionTime)
	}
	if agg.PlacementCounts[PlacementLocal] != 1 || agg.PlacementCounts[PlacementCloud] != 1 {
		t.Fatalf("PlacementCounts = %v", agg.PlacementCounts)
	}
	if agg.SuspensionCount != 1 {
		t.Fatalf("SuspensionCount = %d", agg.SuspensionCount)
	}
}

func TestAggregateEmpty(t *testing.T) {
	agg := AggregateRecords(nil)
	if agg.N != 0 || agg.MeanExecTime != 0 {
		t.Fatal("empty aggregate must be zeroed")
	}
}

func TestPlacementString(t *testing.T) {
	cases := map[Placement]string{
		PlacementLocal:   "local-vm",
		PlacementVC:      "vc-vm",
		PlacementCloud:   "cloud-vm",
		PlacementUnknown: "unknown",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Fatalf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestSeriesKeepsEveryInstant(t *testing.T) {
	s := NewSeries("exact")
	for i := 0; i < 5000; i++ {
		s.Record(sim.Time(i), float64(i))
	}
	if s.Len() != 5000 {
		t.Fatalf("len = %d, want exact 5000", s.Len())
	}
}
