package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("final Now() = %v, want 3s", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want FIFO", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var events []string
	e.Schedule(time.Second, func() {
		events = append(events, "a")
		e.Schedule(time.Second, func() { events = append(events, "c") })
		e.Schedule(0, func() { events = append(events, "b") })
	})
	e.RunAll()
	if len(events) != 3 || events[0] != "a" || events[1] != "b" || events[2] != "c" {
		t.Fatalf("events = %v, want [a b c]", events)
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5*time.Second, func() {
		e.Schedule(-time.Hour, func() { fired = true })
	})
	e.RunAll()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s (clamped)", e.Now())
	}
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.Schedule(1*time.Second, func() { fired = append(fired, 1) })
	e.Schedule(2*time.Second, func() { fired = append(fired, 2) })
	e.Schedule(3*time.Second, func() { fired = append(fired, 3) })
	e.Run(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %v within horizon 2s, want exactly events 1,2", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.RunAll()
	if len(fired) != 3 {
		t.Fatalf("fired %v after RunAll, want 3 events", fired)
	}
}

func TestRunAdvancesToHorizonWhenIdle(t *testing.T) {
	e := NewEngine()
	e.Run(10 * time.Second)
	if e.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want horizon 10s", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.RunAll()
	if count != 2 {
		t.Fatalf("count = %d after Stop, want 2", count)
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d, want 3", e.Pending())
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(time.Second, func() { fired = true })
	tm.Cancel()
	e.RunAll()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	// Cancelling again must be a no-op.
	tm.Cancel()
	var nilTimer *Timer
	nilTimer.Cancel() // must not panic
}

func TestEvery(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tm *Timer
	tm = e.Every(10*time.Second, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 3 {
			tm.Cancel()
		}
	})
	e.Run(5 * time.Minute)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(ticks))
	}
	for i, at := range ticks {
		want := time.Duration(i+1) * 10 * time.Second
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestEveryZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	NewEngine().Every(0, func() {})
}

func TestAtNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil) did not panic")
		}
	}()
	NewEngine().At(0, nil)
}

// Heap events carrying the same timestamp as ring events were scheduled
// earlier (lower seq) and must fire first: A fires at 1s, schedules B for
// "now"; C was already queued for 1s and must precede B.
func TestSameInstantHeapBeforeRing(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(time.Second, func() {
		got = append(got, "a")
		e.Schedule(0, func() { got = append(got, "b") })
	})
	e.Schedule(time.Second, func() { got = append(got, "c") })
	e.RunAll()
	if len(got) != 3 || got[0] != "a" || got[1] != "c" || got[2] != "b" {
		t.Fatalf("order = %v, want [a c b]", got)
	}
}

// A cancelled same-instant timer (ring path) must not fire.
func TestTimerCancelSameInstant(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(time.Second, func() {
		tm := e.After(0, func() { fired = true })
		tm.Cancel()
	})
	e.RunAll()
	if fired {
		t.Fatal("cancelled same-instant timer fired")
	}
}

// Recycled event records must not leak state between uses: interleave
// scheduling, cancellation and dispatch over many rounds and count fires.
func TestEventPoolRecycling(t *testing.T) {
	e := NewEngine()
	fired, cancelled := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			e.Schedule(time.Duration(i)*time.Millisecond, func() { fired++ })
		}
		tm := e.After(time.Millisecond, func() { cancelled++ })
		tm.Cancel()
		e.RunAll()
	}
	if fired != 500 {
		t.Fatalf("fired = %d, want 500", fired)
	}
	if cancelled != 0 {
		t.Fatalf("cancelled timers fired %d times", cancelled)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestFiredCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	e.RunAll()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 1, 1550, 0.5, 84} {
		if got := ToSeconds(Seconds(s)); got != s {
			t.Fatalf("ToSeconds(Seconds(%v)) = %v", s, got)
		}
	}
}

// Property: events always dispatch in nondecreasing time order, whatever
// the insertion order.
func TestPropertyDispatchOrderSorted(t *testing.T) {
	f := func(delays []uint32) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			d := Time(d % 1000000)
			e.Schedule(d*time.Microsecond, func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: dispatch follows the exact (at, seq) order — time first,
// then scheduling order — under random At/After/Every/Cancel schedules
// drawn from four whole-second delays, so most events tie with others
// in the heap, and handlers keep scheduling at Now() (the ring) and into
// the future (the heap). The test mirrors the engine's sequence counter:
// one stamp per At/After/Every call and per Every re-arm, which the
// engine makes right after the series' callback returns uncancelled.
func TestPropertyDispatchOrderExact(t *testing.T) {
	type key struct {
		at  Time
		seq uint64
	}
	type timer struct {
		t         *Timer
		cur       *key // the series' pending occurrence
		cancelled bool
	}
	const horizon = 40 * time.Second
	f := func(ops []uint16) bool {
		e := NewEngine()
		var (
			seq    uint64
			next   int
			fired  []key
			due    = map[key]bool{} // scheduled, neither fired nor cancelled
			timers []*timer
			ok     = true
			step   func()
		)
		stamp := func(at Time) key {
			seq++
			k := key{at, seq}
			due[k] = true
			return k
		}
		record := func(k key) {
			if e.Now() != k.at || !due[k] {
				ok = false
			}
			delete(due, k)
			fired = append(fired, k)
		}
		once := func(k key) func() {
			return func() {
				record(k)
				step()
			}
		}
		step = func() {
			if next >= len(ops) {
				return
			}
			op := ops[next]
			next++
			d := Time(op/5%4) * time.Second
			switch op % 5 {
			case 0:
				k := stamp(e.Now() + d)
				e.At(e.Now()+d, once(k))
			case 1:
				k := stamp(e.Now() + d)
				timers = append(timers, &timer{t: e.After(d, once(k)), cur: &k})
			case 2:
				period := d + time.Second
				tm := &timer{cur: new(key)}
				*tm.cur = stamp(e.Now() + period)
				tm.t = e.Every(period, func() {
					record(*tm.cur)
					step()
					if !tm.cancelled {
						*tm.cur = stamp(e.Now() + period)
					}
				})
				timers = append(timers, tm)
			case 3:
				if len(timers) > 0 {
					tm := timers[int(op/5)%len(timers)]
					tm.t.Cancel()
					tm.cancelled = true
					delete(due, *tm.cur)
				}
				step()
			case 4: // fan out: two more ops from this instant
				step()
				step()
			}
		}
		for i := 0; i < 8; i++ {
			step()
		}
		e.Run(horizon)
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if a.at > b.at || (a.at == b.at && a.seq >= b.seq) {
				return false
			}
		}
		for k := range due {
			if k.at <= horizon {
				return false // due by the horizon but never fired
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: every scheduled event fires exactly once under RunAll.
func TestPropertyAllEventsFireOnce(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		count := 0
		for _, d := range delays {
			e.Schedule(Time(d)*time.Millisecond, func() { count++ })
		}
		e.RunAll()
		return count == len(delays) && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, "vmm")
	b := NewRNG(42, "vmm")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed+name produced diverging streams")
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	a := NewRNG(42, "vmm")
	b := NewRNG(42, "cloud")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names collide too often: %d/64", same)
	}
}

func TestRNGFork(t *testing.T) {
	a := NewRNG(1, "root").Fork("child")
	b := NewRNG(1, "root").Fork("child")
	if a.Int63() != b.Int63() {
		t.Fatal("Fork is not deterministic")
	}
}

func TestRNGRange(t *testing.T) {
	r := NewRNG(7, "range")
	for i := 0; i < 1000; i++ {
		v := r.Range(7, 15)
		if v < 7 || v > 15 {
			t.Fatalf("Range(7,15) = %v out of bounds", v)
		}
	}
	if r.Range(3, 3) != 3 {
		t.Fatal("degenerate range must return lo")
	}
}

func TestRNGRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Range(hi<lo) did not panic")
		}
	}()
	NewRNG(1, "x").Range(5, 4)
}

// Property: Range always stays within bounds for arbitrary seeds/bounds.
func TestPropertyRNGRangeBounds(t *testing.T) {
	f := func(seed int64, lo float64, span uint16) bool {
		if lo != lo || lo > 1e100 || lo < -1e100 { // reject NaN/huge
			return true
		}
		hi := lo + float64(span)
		v := NewRNG(seed, "p").Range(lo, hi)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j)*time.Millisecond, func() {})
		}
		e.RunAll()
	}
}

// BenchmarkEngineSteadyState models a long-lived simulation: one engine
// dispatching a self-renewing event chain, the dominant shape inside a
// platform run. With event pooling this is allocation-free per event.
func BenchmarkEngineSteadyState(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	remaining := b.N
	var next func()
	next = func() {
		remaining--
		if remaining > 0 {
			e.Schedule(time.Millisecond, next)
		}
	}
	e.Schedule(time.Millisecond, next)
	e.RunAll()
}

// BenchmarkEngineHeapChurn holds about 1,000 events pending at random
// future delays, each dispatched event scheduling one replacement, so
// heap sift work dominates: the shape of a platform run with many
// concurrent timers. One op is one dispatched event.
func BenchmarkEngineHeapChurn(b *testing.B) {
	b.ReportAllocs()
	r := rand.New(rand.NewSource(1))
	delays := make([]Time, 4096)
	for i := range delays {
		delays[i] = Time(1+r.Intn(1000000)) * time.Microsecond
	}
	e := NewEngine()
	remaining, k := b.N, 0
	var next func()
	next = func() {
		if remaining > 0 {
			remaining--
			e.Schedule(delays[k%len(delays)], next)
			k++
		}
	}
	for i := 0; i < 1000; i++ {
		e.Schedule(delays[k%len(delays)], next)
		k++
	}
	b.ResetTimer()
	e.RunAll()
}

// BenchmarkEngineSameInstantBurst measures the same-instant fan-out shape
// (Schedule(0) cascades during bid rounds): 1000 events at one instant
// per reused engine, exercising the FIFO fast path instead of the heap.
func BenchmarkEngineSameInstantBurst(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Millisecond, func() {
			for j := 0; j < 999; j++ {
				e.Schedule(0, func() {})
			}
		})
		e.RunAll()
	}
}
