// Package metrics is the live metrics plane of the ν-LPA system: a
// dependency-free registry of atomic Counters, Gauges, and Histograms
// (exponential buckets, p50/p95/p99 summaries) with single-label families,
// exposed in Prometheus text format (see expo.go).
//
// Where internal/telemetry records one run for offline inspection, this
// package aggregates across every run in the process so a monitoring server
// can observe convergence behaviour while detections are in flight. The two
// layers share sources of truth: a profiled simt launch's record and the
// atomics contention counters feed both.
//
// The hot path is allocation-free: updating a Counter, Gauge, or Histogram
// is a handful of atomic operations, and a family lookup (With) returns a
// cached child without allocating after the first use of a label value.
// Like the telemetry layer's zero-alloc-when-disabled rule, this is pinned
// by a guardrail test. The package deliberately imports nothing from the
// repository, so every layer — simt, hashtable, engine, httpapi — may
// instrument against it without cycles.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Exemplar links a counter increment to the trace that caused it: a scrape
// of nulpa_backend_fallbacks_total shows not just that fallbacks happened
// but which trace to open in /debug/trace to see why. Only the most recent
// exemplar is kept — the standard exemplar contract.
type Exemplar struct {
	// TraceID is the 16-hex-digit trace id (internal/trace form).
	TraceID string
	// Value is the counter's value right after the exemplified increment.
	Value int64
	// Time is when the increment happened.
	Time time.Time
}

// Counter is a monotonically increasing value.
type Counter struct {
	v  atomic.Int64
	ex atomic.Pointer[Exemplar]
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// IncExemplar adds 1 and, when traceID is non-empty, records it as the
// counter's exemplar. The exemplar is rendered in OpenMetrics style on the
// counter's /metrics line and is readable via Exemplar.
func (c *Counter) IncExemplar(traceID string) {
	n := c.v.Add(1)
	if traceID != "" {
		c.ex.Store(&Exemplar{TraceID: traceID, Value: n, Time: time.Now()})
	}
}

// Add adds delta; negative deltas are programmer errors and are ignored.
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Exemplar returns the most recent exemplar, or nil if none was recorded.
func (c *Counter) Exemplar() *Exemplar { return c.ex.Load() }

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop over the bit pattern).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// HistExemplar links a histogram observation to the trace that produced it:
// an SLO latency spike on /metrics names the trace to open in /debug/trace.
// Only the most recent exemplified observation is kept.
type HistExemplar struct {
	// TraceID is the 16-hex-digit trace id (internal/trace form).
	TraceID string
	// Value is the observed value.
	Value float64
	// Time is when the observation happened.
	Time time.Time
}

// Histogram counts observations into fixed buckets and tracks their sum.
// Buckets are defined by ascending upper bounds; observations above the last
// bound land in an implicit +Inf bucket. All updates are atomic.
type Histogram struct {
	bounds []float64      // ascending upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
	ex     atomic.Pointer[HistExemplar]
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Merge folds a batch of pre-bucketed observations in at once: counts[i]
// observations fell in bucket i (counts has one entry per bound plus the
// trailing +Inf bucket) and their values sum to sum. It is the bulk form of
// Observe for hot paths that tally into a private buffer and fold it once,
// instead of paying one contended update per observation. Merging a zero
// batch is a no-op.
func (h *Histogram) Merge(counts []int64, sum float64) {
	if len(counts) != len(h.counts) {
		panic(fmt.Sprintf("metrics: Merge of %d buckets into a histogram with %d", len(counts), len(h.counts)))
	}
	var n int64
	for i, c := range counts {
		if c != 0 {
			h.counts[i].Add(c)
			n += c
		}
	}
	if n == 0 {
		return
	}
	h.count.Add(n)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sum)) {
			return
		}
	}
}

// ObserveExemplar records one observation and, when traceID is non-empty,
// keeps it as the histogram's exemplar. The exemplar is rendered in
// OpenMetrics style on the +Inf bucket line.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID != "" {
		h.ex.Store(&HistExemplar{TraceID: traceID, Value: v, Time: time.Now()})
	}
}

// Exemplar returns the most recent exemplar, or nil if none was recorded.
func (h *Histogram) Exemplar() *HistExemplar { return h.ex.Load() }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExpBuckets returns n ascending bucket bounds start, start·factor,
// start·factor², … — the exponential bucketing every histogram here uses.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("metrics: ExpBuckets wants start > 0, factor > 1, n > 0")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// kind discriminates registered metrics for exposition and get-or-create
// type checking.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
	kindCounterVec
	kindGaugeVec
	kindHistogramVec
)

func (k kind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc, kindCounterVec:
		return "counter"
	case kindHistogram, kindHistogramVec:
		return "histogram"
	default:
		return "gauge"
	}
}

// entry is one registered metric: a scalar, a read-at-scrape func, or a
// labeled family of children.
type entry struct {
	name, help string
	kind       kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64

	label   string // families: the single label name
	vecMu   sync.RWMutex
	vecC    map[string]*Counter
	vecG    map[string]*Gauge
	vecH    map[string]*Histogram
	buckets []float64 // histogram (vec) bucket bounds
}

// Registry holds a set of named metrics. The zero value is not usable; use
// NewRegistry or the package-level Default registry.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{entries: map[string]*entry{}} }

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that the package-level
// constructors register into and that httpapi exposes.
func Default() *Registry { return defaultRegistry }

// get-or-create: instrumentation lives in package init funcs and tests
// re-trigger it, so registering an existing name with the same kind returns
// the existing metric; a kind clash is a programmer error and panics.
func (r *Registry) lookup(name string, k kind) *entry {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil
	}
	if e.kind != k {
		panic(fmt.Sprintf("metrics: %s re-registered as %s, was %s", name, k.promType(), e.kind.promType()))
	}
	return e
}

func (r *Registry) insert(e *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.entries[e.name]; ok {
		if prev.kind != e.kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %s, was %s", e.name, e.kind.promType(), prev.kind.promType()))
		}
		return prev
	}
	r.entries[e.name] = e
	return e
}

// Counter registers (or returns the existing) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if e := r.lookup(name, kindCounter); e != nil {
		return e.counter
	}
	return r.insert(&entry{name: name, help: help, kind: kindCounter, counter: &Counter{}}).counter
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if e := r.lookup(name, kindGauge); e != nil {
		return e.gauge
	}
	return r.insert(&entry{name: name, help: help, kind: kindGauge, gauge: &Gauge{}}).gauge
}

// Histogram registers (or returns the existing) histogram with the given
// ascending bucket upper bounds (see ExpBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if e := r.lookup(name, kindHistogram); e != nil {
		return e.hist
	}
	h := &Histogram{bounds: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
	return r.insert(&entry{name: name, help: help, kind: kindHistogram, hist: h, buckets: buckets}).hist
}

// CounterFunc registers a counter whose value is read by fn at scrape time —
// the bridge for pre-existing process-wide counters (e.g. the simt atomics
// contention counters) that must stay a single source of truth.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if e := r.lookup(name, kindCounterFunc); e != nil {
		return
	}
	r.insert(&entry{name: name, help: help, kind: kindCounterFunc, fn: fn})
}

// GaugeFunc registers a gauge whose value is read by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if e := r.lookup(name, kindGaugeFunc); e != nil {
		return
	}
	r.insert(&entry{name: name, help: help, kind: kindGaugeFunc, fn: fn})
}

// CounterVec is a family of counters keyed by one label.
type CounterVec struct{ e *entry }

// GaugeVec is a family of gauges keyed by one label.
type GaugeVec struct{ e *entry }

// HistogramVec is a family of histograms keyed by one label.
type HistogramVec struct{ e *entry }

// CounterVec registers (or returns the existing) counter family with the
// given label name.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if e := r.lookup(name, kindCounterVec); e != nil {
		return &CounterVec{e}
	}
	e := r.insert(&entry{name: name, help: help, kind: kindCounterVec, label: label, vecC: map[string]*Counter{}})
	return &CounterVec{e}
}

// GaugeVec registers (or returns the existing) gauge family.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	if e := r.lookup(name, kindGaugeVec); e != nil {
		return &GaugeVec{e}
	}
	e := r.insert(&entry{name: name, help: help, kind: kindGaugeVec, label: label, vecG: map[string]*Gauge{}})
	return &GaugeVec{e}
}

// HistogramVec registers (or returns the existing) histogram family.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	if e := r.lookup(name, kindHistogramVec); e != nil {
		return &HistogramVec{e}
	}
	e := r.insert(&entry{name: name, help: help, kind: kindHistogramVec, label: label, buckets: buckets, vecH: map[string]*Histogram{}})
	return &HistogramVec{e}
}

// With returns the child counter for the label value, creating it on first
// use. Subsequent calls are an allocation-free read-locked map lookup; hot
// paths should still cache the returned handle once per run.
func (v *CounterVec) With(value string) *Counter {
	v.e.vecMu.RLock()
	c, ok := v.e.vecC[value]
	v.e.vecMu.RUnlock()
	if ok {
		return c
	}
	v.e.vecMu.Lock()
	defer v.e.vecMu.Unlock()
	if c, ok := v.e.vecC[value]; ok {
		return c
	}
	c = &Counter{}
	v.e.vecC[value] = c
	return c
}

// With returns the child gauge for the label value, creating it on first use.
func (v *GaugeVec) With(value string) *Gauge {
	v.e.vecMu.RLock()
	g, ok := v.e.vecG[value]
	v.e.vecMu.RUnlock()
	if ok {
		return g
	}
	v.e.vecMu.Lock()
	defer v.e.vecMu.Unlock()
	if g, ok := v.e.vecG[value]; ok {
		return g
	}
	g = &Gauge{}
	v.e.vecG[value] = g
	return g
}

// With returns the child histogram for the label value, creating it on first
// use with the family's buckets.
func (v *HistogramVec) With(value string) *Histogram {
	v.e.vecMu.RLock()
	h, ok := v.e.vecH[value]
	v.e.vecMu.RUnlock()
	if ok {
		return h
	}
	v.e.vecMu.Lock()
	defer v.e.vecMu.Unlock()
	if h, ok := v.e.vecH[value]; ok {
		return h
	}
	h = &Histogram{bounds: v.e.buckets, counts: make([]atomic.Int64, len(v.e.buckets)+1)}
	v.e.vecH[value] = h
	return h
}

// sorted returns the entries in name order (exposition order).
func (r *Registry) sorted() []*entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Locked child lookups for the exposition paths: With may insert
// concurrently with a scrape, so every map read takes the read lock.
// Children are never deleted, so a returned handle stays valid.

func (e *entry) counterChild(k string) *Counter {
	e.vecMu.RLock()
	defer e.vecMu.RUnlock()
	return e.vecC[k]
}

func (e *entry) gaugeChild(k string) *Gauge {
	e.vecMu.RLock()
	defer e.vecMu.RUnlock()
	return e.vecG[k]
}

func (e *entry) histChild(k string) *Histogram {
	e.vecMu.RLock()
	defer e.vecMu.RUnlock()
	return e.vecH[k]
}

// sortedVecKeys returns a family's label values in order.
func (e *entry) sortedVecKeys() []string {
	e.vecMu.RLock()
	defer e.vecMu.RUnlock()
	var keys []string
	switch e.kind {
	case kindCounterVec:
		for k := range e.vecC {
			keys = append(keys, k)
		}
	case kindGaugeVec:
		for k := range e.vecG {
			keys = append(keys, k)
		}
	case kindHistogramVec:
		for k := range e.vecH {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Package-level constructors, registering into the Default registry.

// NewCounter registers a counter in the default registry.
func NewCounter(name, help string) *Counter { return defaultRegistry.Counter(name, help) }

// NewGauge registers a gauge in the default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.Gauge(name, help) }

// NewHistogram registers a histogram in the default registry.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return defaultRegistry.Histogram(name, help, buckets)
}

// NewCounterFunc registers a scrape-time counter in the default registry.
func NewCounterFunc(name, help string, fn func() float64) {
	defaultRegistry.CounterFunc(name, help, fn)
}

// NewGaugeFunc registers a scrape-time gauge in the default registry.
func NewGaugeFunc(name, help string, fn func() float64) {
	defaultRegistry.GaugeFunc(name, help, fn)
}

// NewCounterVec registers a counter family in the default registry.
func NewCounterVec(name, help, label string) *CounterVec {
	return defaultRegistry.CounterVec(name, help, label)
}

// NewGaugeVec registers a gauge family in the default registry.
func NewGaugeVec(name, help, label string) *GaugeVec {
	return defaultRegistry.GaugeVec(name, help, label)
}

// NewHistogramVec registers a histogram family in the default registry.
func NewHistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	return defaultRegistry.HistogramVec(name, help, label, buckets)
}
