// Package obs is the observability substrate of the adaptive-ranking
// pipeline: dependency-free atomic counters, gauges, and fixed-bucket
// histograms collected in a named Registry, plus a structured per-run
// event trace behind the Recorder interface (see recorder.go).
//
// Both halves are designed so the extraction hot path pays nothing when
// observation is disabled: every Registry accessor is safe on a nil
// receiver (it hands back shared no-op instruments), and the no-op
// Recorder reports Enabled() == false so call sites can skip building
// events entirely. Instrumented components cache instrument pointers at
// Instrument time, so the per-document cost of an enabled registry is a
// handful of atomic operations.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add accumulates n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 (last-write-wins).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value (0 before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: observations are counted into
// the bucket whose upper bound is the first one >= the value, with one
// implicit overflow bucket past the last bound. Bounds are fixed at
// construction, so Observe is lock-free: a binary search plus three
// atomic updates.
type Histogram struct {
	bounds []float64      // sorted upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a latency in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// LatencyBuckets returns the default latency bucket bounds in seconds:
// exponentially doubling from 1µs to ~16.8s (25 buckets). These cover
// everything from a single sparse dot product to a full re-rank of a
// large pending pool.
func LatencyBuckets() []float64 {
	b := make([]float64, 25)
	v := 1e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// Registry is a named collection of instruments. All methods are safe
// for concurrent use and safe on a nil receiver: a nil registry hands
// out shared no-op instruments, so instrumented code never needs a nil
// check of its own.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Shared sinks handed out by nil registries; they absorb writes so
// disabled instrumentation stays branch-free at the call sites.
var (
	nopCounter = &Counter{}
	nopGauge   = &Gauge{}
	nopHist    = newHistogram(nil)
)

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nopCounter
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nopGauge
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (nil bounds select LatencyBuckets). Later
// calls return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nopHist
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = LatencyBuckets()
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterValue reads a counter by name (0 when absent) without creating it.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c.Value()
	}
	return 0
}

// Dump and Snapshot live in snapshot.go: both the expvar-style text dump
// and the Prometheus exposition (prometheus.go) format the same typed
// Snapshot, so the two read paths cannot drift.
