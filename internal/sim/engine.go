// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock through a time-ordered event queue.
// Events scheduled for the same instant fire in scheduling order (stable
// FIFO tie-breaking), which makes simulations fully deterministic given
// deterministic event handlers. All Meryn substrates (VM manager, cloud
// providers, frameworks, managers) run on top of one Engine.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured as an offset from the
// simulation start. The zero Time is the simulation start.
type Time = time.Duration

// Forever is a convenient horizon for Run when the simulation should be
// driven until the event queue drains.
const Forever Time = math.MaxInt64

// Event is a scheduled callback. The callback receives the engine so that
// handlers can schedule follow-up events.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among events at the same instant
	fn   func()
	canc *bool // optional cancellation flag
}

// before reports whether a fires before b: earlier time first, then
// scheduling order. (at, seq) is a total order, so dispatch order never
// depends on how the heap arranges its slots.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a binary min-heap of future events ordered by before.
type eventQueue []*event

// push inserts ev, sifting it up from the last slot.
func (q *eventQueue) push(ev *event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest event; the queue must be
// non-empty. The last slot's event sifts down from the root.
func (q *eventQueue) pop() *event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(h[c]) {
				c = r
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return top
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; run independent simulations in separate Engines
// (see exp.Pool for parallel sweeps).
//
// Three hot-path optimizations keep event dispatch cheap:
//
//   - future events sit in a typed binary min-heap (eventQueue) that
//     compares (at, seq) inline, with none of the interface calls
//     container/heap makes per sift step;
//   - fired events are recycled through a free list, so steady-state
//     simulation (handlers scheduling follow-up events) allocates no
//     event records after warm-up;
//   - events scheduled for the current instant (Schedule(0) cascades,
//     e.g. bid-round fan-outs) go to a FIFO ring instead of the heap,
//     avoiding O(log n) sift work per push/pop for same-instant bursts.
//
// The ring only ever holds events whose time equals Now(): events land
// there at creation when their time is the present, and the dispatch
// loop drains the ring before advancing the clock. Heap events carrying
// the same timestamp as ring events are necessarily older (the clock had
// not yet reached that instant when they were pushed), so interleaving
// by (at, seq) preserves the global FIFO tie-break.
type Engine struct {
	now       Time
	queue     eventQueue
	ring      []*event // FIFO of events at the current instant
	ringPos   int      // consumption cursor into ring
	free      []*event // recycled event records
	seq       uint64
	running   bool
	stopped   bool
	fired     uint64
	lastFired Time // time of the most recently dispatched event
}

// alloc takes an event record from the free list (or allocates one) and
// stamps it with the next sequence number.
func (e *Engine) alloc(at Time, fn func(), canc *bool) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	e.seq++
	ev.at, ev.seq, ev.fn, ev.canc = at, e.seq, fn, canc
	return ev
}

// recycle returns a dispatched (or cancelled) event to the free list,
// dropping its references so closures are not retained.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.canc = nil
	e.free = append(e.free, ev)
}

// add enqueues fn at absolute time t (clamped to the present): the FIFO
// ring for the current instant, the heap for the future.
func (e *Engine) add(t Time, fn func(), canc *bool) {
	if t < e.now {
		t = e.now
	}
	ev := e.alloc(t, fn, canc)
	if t == e.now {
		e.ring = append(e.ring, ev)
		return
	}
	e.queue.push(ev)
}

// popNext removes and returns the earliest queued event, interleaving
// ring and heap by (at, seq). It returns nil — leaving the event queued —
// when nothing remains or the earliest event lies beyond the horizon.
func (e *Engine) popNext(until Time) *event {
	var ev *event
	fromRing := e.ringPos < len(e.ring)
	if fromRing && len(e.queue) > 0 {
		fromRing = e.ring[e.ringPos].before(e.queue[0])
	}
	if fromRing {
		ev = e.ring[e.ringPos]
		if ev.at > until {
			return nil
		}
		e.ring[e.ringPos] = nil
		e.ringPos++
		if e.ringPos == len(e.ring) {
			e.ring = e.ring[:0]
			e.ringPos = 0
		}
		return ev
	}
	if len(e.queue) == 0 {
		return nil
	}
	if e.queue[0].at > until {
		return nil
	}
	return e.queue.pop()
}

// NewEngine returns an Engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.queue) + len(e.ring) - e.ringPos }

// LastFired returns the time of the most recently dispatched event (the
// zero Time when none fired yet). Unlike Now, it does not move when Run
// advances the clock to an event-free horizon.
func (e *Engine) LastFired() Time { return e.lastFired }

// NextAt returns the time of the earliest queued event and whether one
// exists. Cancelled events still count until they drain: NextAt is a
// scheduling bound, not a guarantee that work will run at that instant.
func (e *Engine) NextAt() (Time, bool) {
	if e.ringPos < len(e.ring) {
		return e.now, true
	}
	if len(e.queue) > 0 {
		return e.queue[0].at, true
	}
	return 0, false
}

// Schedule runs fn after delay. A negative delay is an error in the
// caller; it is clamped to zero so the event fires at the current instant
// (after already-queued events for that instant).
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t. Times in the past are clamped to
// the present.
func (e *Engine) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: At called with nil func")
	}
	e.add(t, fn, nil)
}

// Timer is a cancellable scheduled event.
type Timer struct {
	cancelled *bool
}

// Cancel prevents the timer's callback from firing. Cancelling an
// already-fired or already-cancelled timer is a no-op.
func (t *Timer) Cancel() {
	if t != nil && t.cancelled != nil {
		*t.cancelled = true
	}
}

// After schedules fn like Schedule but returns a Timer that can cancel it.
func (e *Engine) After(delay Time, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	cancelled := false
	e.add(e.now+delay, fn, &cancelled)
	return &Timer{cancelled: &cancelled}
}

// Every schedules fn to run periodically with the given period, starting
// after one period. The returned Timer cancels the series. A non-positive
// period panics: it would live-lock the simulation.
func (e *Engine) Every(period Time, fn func()) *Timer {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive period %v", period))
	}
	cancelled := false
	var tick func()
	tick = func() {
		fn()
		if !cancelled {
			e.add(e.now+period, tick, &cancelled)
		}
	}
	e.add(e.now+period, tick, &cancelled)
	return &Timer{cancelled: &cancelled}
}

// Stop aborts Run after the current event handler returns.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events in time order until the queue is empty, the
// horizon is passed, or Stop is called. It returns the time of the last
// dispatched event (or the current time if none fired). Events scheduled
// exactly at the horizon still fire.
func (e *Engine) Run(until Time) Time {
	if e.running {
		panic("sim: Run re-entered")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	for !e.stopped {
		ev := e.popNext(until)
		if ev == nil {
			break
		}
		if ev.canc != nil && *ev.canc {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.fired++
		e.lastFired = ev.at
		fn := ev.fn
		e.recycle(ev)
		fn()
	}
	if !e.stopped && until != Forever && e.now < until {
		// Advance the clock to the horizon (standard DES semantics):
		// callers that intervene between Run calls — e.g. suspending a
		// job "at time t" — must observe Now() == t even when the next
		// queued event lies beyond the horizon.
		e.now = until
	}
	return e.now
}

// RunAll drives the simulation until no events remain.
func (e *Engine) RunAll() Time { return e.Run(Forever) }

// Step dispatches exactly one (non-cancelled) event and reports whether
// one was found. It lets callers interleave simulation progress with
// external termination conditions — e.g. "run until the workload
// settles" in the presence of self-renewing events like crash injection.
func (e *Engine) Step() bool {
	for {
		ev := e.popNext(Forever)
		if ev == nil {
			return false
		}
		if ev.canc != nil && *ev.canc {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.fired++
		e.lastFired = ev.at
		fn := ev.fn
		e.recycle(ev)
		fn()
		return true
	}
}

// Seconds converts a float64 number of seconds to virtual Time. It is the
// conversion used throughout the Meryn model, where paper quantities are
// expressed in seconds. Rounding (not truncation) makes
// Seconds(ToSeconds(t)) == t for all simulation-scale t.
func Seconds(s float64) Time { return Time(math.Round(s * float64(time.Second))) }

// ToSeconds converts virtual Time to float64 seconds.
func ToSeconds(t Time) float64 { return t.Seconds() }
