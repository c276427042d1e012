// Package trace is the causal observability layer of the ν-LPA system: a
// dependency-free span tracer that turns one run — an HTTP job, a one-shot
// CLI detection — into a tree of timed spans (job → detect → iteration →
// kernel launch) connected by a trace ID that propagates through
// context.Context.
//
// Where internal/telemetry answers "what did the device do" and
// internal/metrics answers "what is the process doing overall", this package
// answers "what did *this* run do": every iteration span carries its index
// (its counts live in the run's iteration record), every kernel span its
// launch geometry, and fault-recovery activity (retries, rollbacks, backend
// fallbacks) lands as events on the span that suffered it.
//
// # Hot-path contract
//
// Tracing off is the common case and must cost nothing: starting a root on a
// disabled tracer returns a nil *Span without allocating, a nil span makes
// every method a no-op, and Child on a context with no span is a single
// context lookup. This mirrors the telemetry layer's
// zero-alloc-when-disabled rule and is pinned by the same kind of guardrail
// test (alloc_guard_test.go).
//
// # Storage
//
// Completed spans land in a bounded lock-free ring buffer: End claims a slot
// with one atomic increment and publishes the span with one atomic pointer
// store, so concurrent SM goroutines never serialize on a tracer lock. The
// ring holds the most recent Capacity spans; older spans are overwritten
// (and counted as dropped).
//
// The package deliberately imports nothing from the repository, so every
// layer — simt, engine, httpapi, cmd — may open spans without cycles.
package trace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one trace (one run's span tree).
type TraceID uint64

// SpanID identifies one span within the process.
type SpanID uint64

// String renders the id as 16 lowercase hex digits, the form used in JSON
// exports, URLs, and log lines.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// String renders the id as 16 lowercase hex digits.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseTraceID parses the 16-hex-digit form produced by TraceID.String.
func ParseTraceID(s string) (TraceID, error) {
	var v uint64
	if _, err := fmt.Sscanf(s, "%x", &v); err != nil || len(s) != 16 {
		return 0, fmt.Errorf("trace: bad trace id %q", s)
	}
	return TraceID(v), nil
}

// Event is a point-in-time annotation on a span — a retry, a rollback, a
// fault — with optional attributes.
type Event struct {
	Name  string
	At    time.Time
	Attrs map[string]any
}

// Span is one timed operation in a trace. Spans are created by Tracer.Root
// and by Child, annotated while running, and published to the tracer's ring
// buffer by End. A nil *Span is valid and inert: every method is a no-op, so
// instrumentation sites need no enabled-checks of their own.
type Span struct {
	tracer *Tracer
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu     sync.Mutex
	end    time.Time
	ended  bool
	attrs  map[string]any
	events []Event
}

// TraceID returns the span's trace id (0 for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.trace
}

// SetString sets a string attribute.
func (s *Span) SetString(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// SetInt sets an integer attribute.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// SetFloat sets a float attribute.
func (s *Span) SetFloat(key string, value float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// SetBool sets a boolean attribute.
func (s *Span) SetBool(key string, value bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Event records a point-in-time event on the span. attrs, when non-nil, is
// retained by the span — callers must not mutate it afterwards.
func (s *Span) Event(name string, attrs map[string]any) {
	if s == nil {
		return
	}
	at := s.tracer.clock()
	s.mu.Lock()
	s.events = append(s.events, Event{Name: name, At: at, Attrs: attrs})
	s.mu.Unlock()
}

// End stamps the span's end time and publishes it to the tracer's ring
// buffer. End is idempotent: late duplicate calls (a cancel racing a natural
// completion) are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = s.tracer.clock()
	s.mu.Unlock()
	s.tracer.publish(s)
}

// ctxKey is the context key under which the active span travels.
type ctxKey struct{}

// FromContext returns the active span of ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// IDFromContext returns the hex trace id of ctx's active span, or "" when
// ctx carries none — the form log lines attach for trace correlation.
func IDFromContext(ctx context.Context) string {
	s := FromContext(ctx)
	if s == nil {
		return ""
	}
	return s.trace.String()
}

// Child starts a span under the active span of ctx and returns a context
// carrying it. When ctx has no active span — tracing disabled or the caller
// outside any trace — it returns (ctx, nil) without allocating, so
// instrumentation can call it unconditionally.
func Child(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	t := parent.tracer
	s := &Span{
		tracer: t,
		trace:  parent.trace,
		id:     SpanID(t.newID()),
		parent: parent.id,
		name:   name,
		start:  t.clock(),
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// DefaultCapacity is the ring-buffer size of tracers created by New(0) and
// of the package default tracer.
const DefaultCapacity = 4096

// Tracer owns the span ring buffer. The zero value is not usable; use New or
// the package-level Default tracer. A Tracer is safe for concurrent use by
// any number of goroutines.
type Tracer struct {
	enabled atomic.Bool
	ids     atomic.Uint64 // id generator state
	seed    uint64        // mixed into ids so restarts do not collide
	head    atomic.Uint64 // next ring slot (monotonic)
	ring    []atomic.Pointer[Span]

	// now is the tracer's clock; tests replace it for determinism.
	now func() time.Time
}

// New returns a disabled Tracer whose ring holds capacity completed spans
// (capacity <= 0 selects DefaultCapacity).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		ring: make([]atomic.Pointer[Span], capacity),
		seed: uint64(time.Now().UnixNano()),
		now:  time.Now,
	}
}

var defaultTracer = New(0)

// Default returns the process-wide tracer: the one httpapi serves on
// /debug/trace and cmd/nulpa writes into its flight bundle and Chrome
// profile. It starts disabled.
func Default() *Tracer { return defaultTracer }

// NewID returns a fresh 16-hex-digit id from the default tracer's generator —
// for request ids and other correlation tokens that live outside any span.
func NewID() string { return SpanID(defaultTracer.newID()).String() }

// SetEnabled turns span creation on or off. Disabling mid-run does not
// truncate traces already started: their children keep recording.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether new root spans are being created.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Root starts a new trace: a parentless span under a fresh trace id. With
// the tracer disabled it returns (ctx, nil) without allocating.
func (t *Tracer) Root(ctx context.Context, name string) (context.Context, *Span) {
	if !t.enabled.Load() {
		return ctx, nil
	}
	s := &Span{
		tracer: t,
		trace:  TraceID(t.newID()),
		name:   name,
		start:  t.clock(),
	}
	s.id = SpanID(t.newID())
	return context.WithValue(ctx, ctxKey{}, s), s
}

// clock reads the tracer's time source (nil tracer falls back to time.Now so
// a hand-built span cannot panic).
func (t *Tracer) clock() time.Time {
	if t == nil || t.now == nil {
		return time.Now()
	}
	return t.now()
}

// newID returns a well-mixed 64-bit id (SplitMix64 over an atomic counter).
// Zero is reserved for "no id" and never produced.
func (t *Tracer) newID() uint64 {
	for {
		x := t.ids.Add(1)*0x9e3779b97f4a7c15 + t.seed
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// publish lands a completed span in the ring: one atomic add to claim the
// slot, one atomic store to publish. Slots wrap; the overwritten span is the
// oldest and its loss is counted by Stats.
func (t *Tracer) publish(s *Span) {
	idx := t.head.Add(1) - 1
	t.ring[idx%uint64(len(t.ring))].Store(s)
}

// Stats reports the tracer's volume accounting: spans recorded (published to
// the ring over the tracer's lifetime) and spans dropped by ring overwrite.
func (t *Tracer) Stats() (recorded, dropped uint64) {
	h := t.head.Load()
	d := uint64(0)
	if c := uint64(len(t.ring)); h > c {
		d = h - c
	}
	return h, d
}

// Reset empties the ring buffer and zeroes the counters (test isolation for
// the shared Default tracer). The enabled setting persists.
func (t *Tracer) Reset() {
	t.head.Store(0)
	for i := range t.ring {
		t.ring[i].Store(nil)
	}
}
