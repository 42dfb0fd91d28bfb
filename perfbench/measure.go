package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p99, p90 and p50 that has at least
// ten samples beyond it, so a tail percentile is never read off a
// handful of points.
func tailQuantile(xs []float64) float64 {
	for _, q := range []float64{0.99, 0.9} {
		if float64(len(xs))*(1-q) >= 10 {
			return quantile(xs, q)
		}
	}
	return quantile(xs, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// attributes to the runtime layer.
type runtimeSample struct {
	allocBytes, mallocs uint64
	gcCPU, totalCPU     float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		mallocs:    s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// sub returns the counters accumulated between b and a.
func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes: a.allocBytes - b.allocBytes,
		mallocs:    a.mallocs - b.mallocs,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}

func (a runtimeSample) gcFrac() float64 {
	if a.totalCPU <= 0 {
		return 0
	}
	return a.gcCPU / a.totalCPU
}

// heapMeter measures how much live heap a run adds: the peak of the
// live heap the collector marked during the run, and after a collection
// at its end, minus the live heap after a collection at its start. The
// benchmark's own retained data (inputs, latency samples) sits in the
// baseline, so the figure is the program's. The run itself is sampled
// every heapSamplePeriod without stopping the world.
type heapMeter struct {
	stop     chan struct{}
	wg       sync.WaitGroup
	baseline uint64
	peak     uint64
}

const heapSamplePeriod = 2 * time.Millisecond

func liveHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapMeter() *heapMeter {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	h := &heapMeter{stop: make(chan struct{}), baseline: liveHeap(s)}
	h.peak = h.baseline
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapSamplePeriod)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.peak = max(h.peak, liveHeap(s))
			}
		}
	}()
	return h
}

// finish stops sampling, collects, and returns the added live heap in
// MB.
func (h *heapMeter) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	runtime.GC()
	h.peak = max(h.peak, liveHeap([]metrics.Sample{{Name: "/gc/heap/live:bytes"}}))
	return float64(h.peak-h.baseline) / (1 << 20)
}
