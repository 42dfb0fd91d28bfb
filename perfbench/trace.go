package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call it makes. Spans of one request chain through Parent;
// a batched span (N > 1) covers a loop of identical calls.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span ID ahead of recording, so a client can pass it to
// the server before the span ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// span builds a span timed against the tracer's epoch.
func (t *tracer) span(id, parent int64, layer, name string, start, end time.Time, n int) span {
	return span{ID: id, Parent: parent, Layer: layer, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), N: n}
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(id, parent int64, layer, name string, start, end time.Time, n int) {
	if t == nil {
		return
	}
	t.extend([]span{t.span(id, parent, layer, name, start, end, n)})
}

// add records a finished span under a fresh ID.
func (t *tracer) add(parent int64, layer, name string, start, end time.Time) {
	t.record(t.id(), parent, layer, name, start, end, 1)
}

// extend stores finished spans.
func (t *tracer) extend(spans []span) {
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each layer's self time in nanoseconds — span
// durations minus the time their direct children cover — and the total
// duration of the root spans. Children of one parent never overlap in
// this benchmark (each client goroutine issues one call at a time), so
// their durations add. Root spans belong to the benchmark itself, so
// their self time is the residual no layer span covers.
func selfTimes(spans []span) (self map[string]float64, roots float64) {
	childSum := make(map[int64]float64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			childSum[s.Parent] += float64(s.End - s.Start)
		}
	}
	self = map[string]float64{}
	for _, s := range spans {
		d := float64(s.End - s.Start)
		self[s.Layer] += d - childSum[s.ID]
		if s.Parent == 0 {
			roots += d
		}
	}
	return self, roots
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
