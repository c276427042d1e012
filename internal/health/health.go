// Package health is the convergence health monitor: a per-run interpreter
// for the telemetry the substrate already records. It subscribes to the
// iteration stream (telemetry.Recorder sink) and the BSP superstep feed
// (engine.ShardLoop barrier accounting) and derives, every iteration, the
// signals an operator needs to tell a healthy ν-LPA run from a sick one —
// flip-rate decay slope and ETA-to-convergence (the geometric ΔN decay the
// paper's Figure 4 shows), frontier-occupancy trend, an oscillation score
// (label oscillation is the failure mode semi-synchronous scheduling exists
// to prevent), per-shard straggler skew and barrier-wait share, and
// stall/livelock suspicion corroborating the fault-injection watchdog.
//
// A Monitor surfaces three ways: live (Subscribe feeds the SSE endpoint and
// the -health terminal line), aggregate (engine_health_* counters and the
// per-state run gauge, health-state transitions as span events with
// exemplars), and post-mortem (a bounded ring of the last frames
// snapshotted into a schema-versioned FlightBundle on fault, degradation,
// deadline, or request — see flight.go).
//
// The zero-alloc-when-disabled contract holds throughout: a nil *Monitor is
// a no-op on every method (the trace.Span convention), and a Recorder with
// no sink attached pays one mutex round-trip per superstep and nothing more.
package health

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nulpa/internal/telemetry"
	"nulpa/internal/trace"
)

// State is the monitor's coarse verdict for a run at an iteration.
type State string

const (
	// StateWarmup: too few iterations to judge (fewer than three frames).
	StateWarmup State = "warmup"
	// StateConverging: ΔN is decaying geometrically (negative log-slope).
	StateConverging State = "converging"
	// StateHealthy: no pathology detected, but no clear decay either —
	// typical for Pick-Less rounds and early plateau phases.
	StateHealthy State = "healthy"
	// StateOscillating: the flip count has failed to decay across the
	// sliding window while staying above the convergence threshold — the
	// label-oscillation / livelock signature.
	StateOscillating State = "oscillating"
	// StateStraggling: one shard's superstep time dominates the barrier
	// (max/median skew at or above stragglerSkew).
	StateStraggling State = "straggling"
	// StateStalled: the iteration took stallFactor× the recent median wall
	// time — an SM stall, a livelocked kernel, or a rollback/retry storm.
	StateStalled State = "stalled"
	// StateCollapse: the quality plane reports modularity has fallen
	// collapseDrop below the run's peak — the partition is degrading
	// even if the flip counters look healthy (the quality-collapse verdict
	// only exists when a quality observer feeds the monitor).
	StateCollapse State = "quality-collapse"
)

// Verdict thresholds: the max/median superstep-time ratio that flags a
// straggler shard, how far modularity may fall below the run's peak before
// the quality-collapse verdict fires, and the |QualityTrend| bound of the
// quality-plateau signal that confirms convergence.
const (
	stragglerSkew = 2
	collapseDrop  = 0.1
	plateauEps    = 1e-4
)

// Monitor tuning: the sliding-window length of the decay, oscillation and
// trend fits, the flight-recorder frame ring's bound, and the
// duration-over-median multiple that flags a stall.
const (
	window      = 8
	ringSize    = 64
	stallFactor = 8
)

// stallFloor is the minimum iteration wall time before a duration blow-up
// counts as a stall; below it, scheduler jitter dominates and the
// median-multiple test would false-positive on microsecond iterations.
const stallFloor = 2 * time.Millisecond

// Frame is one iteration's health snapshot: the iteration record it derives
// from, joined with the signals the monitor derives. It is the SSE stream
// payload and the flight-recorder ring element (schema documented in
// DESIGN.md §13).
type Frame struct {
	// IterRecord is the iteration's record as the loop emitted it: its
	// counters, wall time, Pick-Less flag and quality record (Quality, nil
	// unless a quality observer fed the run). A Pick-Less round is excluded
	// from decay and oscillation fits: its suppressed ΔN is intentional, not
	// progress.
	telemetry.IterRecord
	// Time stamps when the frame was derived.
	Time time.Time `json:"time"`

	// FlipRate is ΔN/|V| (zero when the vertex count is unknown).
	FlipRate float64 `json:"flipRate"`
	// FrontierOccupancy is ActiveVertices/|V|.
	FrontierOccupancy float64 `json:"frontierOccupancy"`
	// FrontierTrend is the per-iteration slope of FrontierOccupancy over
	// the sliding window (negative = frontier shrinking, as it should).
	FrontierTrend float64 `json:"frontierTrend"`
	// DecaySlope is the least-squares slope of ln(ΔN) per iteration over
	// the window's non-Pick-Less frames; healthy runs sit well below zero.
	DecaySlope float64 `json:"decaySlope"`
	// ETAIterations extrapolates the decay slope to the convergence
	// threshold: iterations remaining, 0 when already below threshold,
	// -1 when the slope does not predict convergence.
	ETAIterations float64 `json:"etaIterations"`
	// OscillationScore is the fraction of consecutive window steps where
	// ΔN failed to decay; ≥ 0.5 with ΔN above threshold flags oscillation.
	OscillationScore float64 `json:"oscillationScore"`
	// DurationFactor is this iteration's wall time over the window median;
	// StallSuspect is set when it reaches stallFactor.
	DurationFactor float64 `json:"durationFactor"`
	StallSuspect   bool    `json:"stallSuspect,omitempty"`

	// Sharded-run signals, populated from the superstep feed (zero-valued
	// on single-device runs; StragglerShard is -1 when no shard stands out).
	Shards         int     `json:"shards,omitempty"`
	StragglerShard int     `json:"stragglerShard"`
	StragglerSkew  float64 `json:"stragglerSkew,omitempty"`
	BarrierWaitUS  float64 `json:"barrierWaitUs,omitempty"`
	// BarrierWaitShare is barrier idle time over total shard-seconds of
	// the superstep — the fraction of the device fleet wasted waiting.
	BarrierWaitShare float64 `json:"barrierWaitShare,omitempty"`
	// HaloLabels is the number of ghost labels exchanged at the barrier.
	HaloLabels int64 `json:"haloLabels,omitempty"`

	// QualityTrend is the per-iteration modularity slope over the window's
	// quality-bearing frames; |trend| ≤ plateauEps reads as a plateau.
	QualityTrend float64 `json:"qualityTrend,omitempty"`

	// State is the verdict after folding this frame in.
	State State `json:"state"`
}

// Event is a notable moment in the run: health-state transitions, fault
// retries observed in the iteration stream, and externally recorded events
// (fallback, deadline, fault) — the flight bundle's annotation track.
type Event struct {
	Iter   int       `json:"iter"`
	Time   time.Time `json:"time"`
	Name   string    `json:"name"`
	Detail string    `json:"detail,omitempty"`
}

// Config parameterizes a Monitor. The zero value works; SetTarget supplies
// the graph size once known, and the iteration records the convergence
// threshold.
type Config struct {
	// Detector names the algorithm under observation (flight metadata).
	Detector string
	// Vertices is |V|, the flip-rate and occupancy denominator (0 = unknown).
	Vertices int
	// Span, when non-nil, is the run's span: it receives health-state
	// transitions as span events, and its trace id tags metric exemplars
	// and resolves the run's spans into the flight bundle.
	Span *trace.Span
	// OnFrame, when non-nil, is called with every frame under the monitor
	// lock (the -health terminal line). It must not call back into the
	// Monitor.
	OnFrame func(Frame)
}

// subBuffer is each live subscriber's channel depth. The SSE writer drains
// far faster than iterations arrive; a full buffer drops the newly-arrived
// frame, accounting it in engine_health_frames_dropped_total and in the
// subscriber's own Dropped counter — the SSE endpoint disconnects such a
// client with a terminal "lagged" event instead of serving a gapped stream.
const subBuffer = 256

// maxEvents bounds the event annotation track.
const maxEvents = 64

// Monitor derives health frames for one run. It implements
// telemetry.IterSink; attach with Recorder.SetSink. All methods are safe on
// a nil receiver (no-ops) and for concurrent use.
type Monitor struct {
	mu  sync.Mutex
	cfg Config
	// traceID is cfg.Span's trace id, "" without a span.
	traceID string
	// threshold is the ΔN convergence bound: the run's own once an
	// iteration record carries one above 1 (IterRecord.Threshold, stamped
	// by engine.Loop), 1 ("no change at all") until then.
	threshold float64

	frames []Frame // ring of the last ringSize frames
	start  int     // ring head when len(frames) == ringSize
	total  int     // frames ever observed

	pending  superstep // shard feed for the iteration being merged
	state    State
	events   []Event
	subs     map[int]*subscriber
	nextSub  int
	closed   bool
	lastIter int

	// The run's peak modularity: the quality-collapse reference.
	peakQ     float64
	havePeakQ bool
}

// subscriber is one live consumer's server-side record: its buffered frame
// channel plus the count of frames dropped because the buffer was full — the
// signal the SSE endpoint uses to disconnect a lagging client rather than
// silently serve it a gapped stream.
type subscriber struct {
	ch      chan Frame
	dropped atomic.Int64
}

// Subscription is a live frame feed handed out by Subscribe. The channel has
// a fixed buffer (subBuffer); a consumer that falls further behind loses
// frames, observable via Dropped.
type Subscription struct {
	// Frames carries every frame observed after the catch-up snapshot, in
	// order. It closes when the run ends (Close) or on Cancel.
	Frames <-chan Frame
	sub    *subscriber
	cancel func()
}

// Dropped reports how many frames this subscriber has lost to backpressure.
func (s *Subscription) Dropped() int64 {
	if s == nil || s.sub == nil {
		return 0
	}
	return s.sub.dropped.Load()
}

// Cancel detaches the subscription and closes its channel. Idempotent.
func (s *Subscription) Cancel() {
	if s != nil && s.cancel != nil {
		s.cancel()
	}
}

// superstep carries one barrier's derived shard signals from
// ObserveSuperstep to the matching ObserveIteration.
type superstep struct {
	valid     bool
	iter      int
	shards    int
	straggler int
	skew      float64
	wait      time.Duration
	waitShare float64
	halo      int64
}

// New returns a Monitor observing one run. The caller must Close it when
// the run finishes so subscribers see end-of-stream and the per-state run
// gauge stays balanced.
func New(cfg Config) *Monitor {
	m := &Monitor{
		cfg:       cfg,
		threshold: 1,
		state:     StateWarmup,
		subs:      map[int]*subscriber{},
		lastIter:  -1,
	}
	if cfg.Span != nil {
		m.traceID = cfg.Span.TraceID().String()
	}
	mStateRuns.With(string(StateWarmup)).Add(1)
	return m
}

// SetTarget supplies the graph size once known (the HTTP job learns it only
// after the graph is built).
func (m *Monitor) SetTarget(vertices int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.cfg.Vertices = vertices
	m.mu.Unlock()
}

// ObserveSuperstep implements telemetry.IterSink: it reduces one barrier's
// per-shard durations to straggler/imbalance signals and holds them for the
// iteration record that follows.
func (m *Monitor) ObserveSuperstep(iter int, durs []time.Duration, barrierWait time.Duration, exchanged int64) {
	if m == nil || len(durs) == 0 {
		return
	}
	var max time.Duration
	straggler := 0
	for s, d := range durs {
		if d > max {
			max, straggler = d, s
		}
	}
	med := medianDuration(durs)
	skew := 0.0
	if med > 0 {
		skew = float64(max) / float64(med)
	}
	share := 0.0
	if max > 0 {
		share = float64(barrierWait) / (float64(len(durs)) * float64(max))
	}
	if skew < stragglerSkew {
		straggler = -1
	}
	m.mu.Lock()
	m.pending = superstep{
		valid:     true,
		iter:      iter,
		shards:    len(durs),
		straggler: straggler,
		skew:      skew,
		wait:      barrierWait,
		waitShare: share,
		halo:      exchanged,
	}
	m.mu.Unlock()
}

// ObserveIteration implements telemetry.IterSink: it derives the iteration's
// frame, folds in any pending superstep signals, advances the state machine,
// and fans the frame out to subscribers.
func (m *Monitor) ObserveIteration(rec telemetry.IterRecord) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if rec.Threshold > 1 {
		m.threshold = rec.Threshold
	}

	f := Frame{IterRecord: rec, Time: time.Now(), StragglerShard: -1, ETAIterations: -1}
	if v := m.cfg.Vertices; v > 0 {
		f.FlipRate = float64(rec.DeltaN) / float64(v)
		f.FrontierOccupancy = float64(rec.ActiveVertices) / float64(v)
	}
	if p := m.pending; p.valid && p.iter == rec.Iter {
		f.Shards = p.shards
		f.StragglerShard = p.straggler
		f.StragglerSkew = p.skew
		f.BarrierWaitUS = float64(p.wait) / float64(time.Microsecond)
		f.BarrierWaitShare = p.waitShare
		f.HaloLabels = p.halo
		m.pending.valid = false
	}
	if q := rec.Quality; q != nil && (!m.havePeakQ || q.Modularity > m.peakQ) {
		m.peakQ, m.havePeakQ = q.Modularity, true
	}

	m.deriveTrends(&f)
	m.push(f)
	m.total++
	m.lastIter = rec.Iter

	prev := m.state
	m.state = m.verdict(f)
	f.State = m.state
	m.setFrameState(f)

	mFrames.Inc()

	if m.state != prev {
		mStateRuns.With(string(prev)).Add(-1)
		mStateRuns.With(string(m.state)).Add(1)
		mTransitions.With(string(m.state)).IncExemplar(m.traceID)
		if m.cfg.Span != nil {
			m.cfg.Span.Event("health:"+string(m.state), map[string]any{
				"iter": rec.Iter,
				"from": string(prev),
			})
		}
		m.event(Event{Iter: rec.Iter, Time: f.Time, Name: "health:" + string(m.state), Detail: "from " + string(prev)})
	}
	if rec.Retries > 0 {
		m.event(Event{Iter: rec.Iter, Time: f.Time, Name: "fault:retry",
			Detail: fmt.Sprintf("recovered after %d retries", rec.Retries)})
	}

	if m.cfg.OnFrame != nil {
		m.cfg.OnFrame(f)
	}
	for _, sub := range m.subs {
		select {
		case sub.ch <- f:
		default:
			sub.dropped.Add(1)
			mFramesDropped.Inc()
		}
	}
}

// setFrameState rewrites the just-pushed ring frame's State (the verdict is
// derived after the push so the window fits include the current frame).
func (m *Monitor) setFrameState(f Frame) {
	i := len(m.frames) - 1
	if len(m.frames) == ringSize {
		i = (m.start + ringSize - 1) % ringSize
	}
	m.frames[i] = f
}

// deriveTrends fills the sliding-window signals of f from the ring contents
// plus f itself. Caller holds m.mu.
func (m *Monitor) deriveTrends(f *Frame) {
	w := m.lastFrames(window - 1)
	w = append(w, *f)

	// Decay slope and oscillation over non-Pick-Less frames: ln(ΔN) vs iter.
	var xs, ys []float64
	pairs, rises := 0, 0
	var prevDelta int64 = -1
	for _, fr := range w {
		if fr.PickLess {
			continue
		}
		xs = append(xs, float64(fr.Iter))
		ys = append(ys, math.Log(float64(max64(fr.DeltaN, 1))))
		if prevDelta >= 0 {
			pairs++
			if fr.DeltaN >= prevDelta && fr.DeltaN > 0 {
				rises++
			}
		}
		prevDelta = fr.DeltaN
	}
	f.DecaySlope = slope(xs, ys)
	if pairs > 0 {
		f.OscillationScore = float64(rises) / float64(pairs)
	}

	th := m.threshold
	switch {
	case float64(f.DeltaN) <= th:
		f.ETAIterations = 0
	case f.DecaySlope < -1e-6:
		eta := (math.Log(th) - math.Log(float64(f.DeltaN))) / f.DecaySlope
		f.ETAIterations = math.Min(eta, 1e6)
	default:
		f.ETAIterations = -1
	}

	// Frontier trend over the whole window (Pick-Less rounds included: the
	// frontier is orthogonal to the candidate-label restriction).
	xs, ys = xs[:0], ys[:0]
	for _, fr := range w {
		xs = append(xs, float64(fr.Iter))
		ys = append(ys, fr.FrontierOccupancy)
	}
	f.FrontierTrend = slope(xs, ys)

	// Modularity trend over the window's quality-bearing frames; a flat
	// slope on a positive-Q run is the quality-plateau convergence signal.
	if f.Quality != nil {
		xs, ys = xs[:0], ys[:0]
		for _, fr := range w {
			if fr.Quality == nil {
				continue
			}
			xs = append(xs, float64(fr.Iter))
			ys = append(ys, fr.Quality.Modularity)
		}
		f.QualityTrend = slope(xs, ys)
	}

	// Stall: this iteration versus the median of the preceding window.
	f.DurationFactor = 1
	if len(w) >= 4 {
		prev := make([]time.Duration, 0, len(w)-1)
		for _, fr := range w[:len(w)-1] {
			prev = append(prev, fr.Duration)
		}
		if med := medianDuration(prev); med > 0 {
			f.DurationFactor = float64(f.Duration) / float64(med)
			f.StallSuspect = f.DurationFactor >= stallFactor && f.Duration >= stallFloor
		}
	}
}

// verdict is the state machine: most severe condition wins. Caller holds
// m.mu; f already has its derived signals.
func (m *Monitor) verdict(f Frame) State {
	if m.total < 3 {
		return StateWarmup
	}
	windowFull := m.total >= window
	// Quality collapse: modularity has fallen collapseDrop below the run's
	// peak. Checked right after stall — the partition is being destroyed
	// even when ΔN alone would read as progress. The peak floor (0.05)
	// keeps noise around Q≈0 warmup values from arming the detector.
	q := f.Quality
	collapse := q != nil && m.havePeakQ && m.peakQ > 0.05 &&
		m.peakQ-q.Modularity >= collapseDrop
	// Quality plateau: modularity flat across the window on a positive-Q
	// run while flips are near the threshold — confirms convergence even
	// when the ΔN decay fit alone is too noisy to call it.
	plateau := windowFull && q != nil && q.Modularity > 0 &&
		math.Abs(f.QualityTrend) <= plateauEps &&
		float64(f.DeltaN) <= 4*m.threshold
	switch {
	case f.StallSuspect:
		return StateStalled
	case collapse:
		return StateCollapse
	case windowFull && f.OscillationScore >= 0.5 && float64(f.DeltaN) > m.threshold:
		return StateOscillating
	case f.Shards > 1 && f.StragglerSkew >= stragglerSkew:
		return StateStraggling
	case f.DecaySlope < -0.05:
		return StateConverging
	case plateau:
		return StateConverging
	default:
		return StateHealthy
	}
}

// RecordEvent annotates the run from outside the iteration stream — the job
// runner records fallback/deadline/fault outcomes here so the flight bundle
// can align them with frames.
func (m *Monitor) RecordEvent(name, detail string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.event(Event{Iter: m.lastIter, Time: time.Now(), Name: name, Detail: detail})
	m.mu.Unlock()
}

// event appends to the bounded annotation track. Caller holds m.mu.
func (m *Monitor) event(e Event) {
	if len(m.events) >= maxEvents {
		copy(m.events, m.events[1:])
		m.events = m.events[:len(m.events)-1]
	}
	m.events = append(m.events, e)
}

// push appends f to the frame ring. Caller holds m.mu.
func (m *Monitor) push(f Frame) {
	if len(m.frames) < ringSize {
		m.frames = append(m.frames, f)
		return
	}
	m.frames[m.start] = f
	m.start = (m.start + 1) % ringSize
}

// lastFrames returns up to n most recent frames, oldest first. Caller holds
// m.mu. The returned slice is freshly allocated.
func (m *Monitor) lastFrames(n int) []Frame {
	total := len(m.frames)
	if n > total {
		n = total
	}
	out := make([]Frame, 0, n+1)
	for i := total - n; i < total; i++ {
		out = append(out, m.frames[(m.start+i)%total])
	}
	return out
}

// Frames returns the retained frame ring, oldest first.
func (m *Monitor) Frames() []Frame {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastFrames(len(m.frames))
}

// Events returns the annotation track in order.
func (m *Monitor) Events() []Event {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// State returns the current verdict.
func (m *Monitor) State() State {
	if m == nil {
		return ""
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// Total returns the number of frames ever observed (the ring retains only
// the last ringSize of them).
func (m *Monitor) Total() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Subscribe registers a live frame consumer. It returns the frames already
// observed (catch-up, oldest first) and a Subscription whose channel carries
// every subsequent frame in order; the channel closes when the run ends
// (Close) or on Subscription.Cancel. The snapshot and registration are
// atomic, so a consumer replaying past then draining the channel sees every
// frame exactly once — except under sustained backpressure, where frames
// drop (counted per subscriber in Subscription.Dropped and globally in
// engine_health_frames_dropped_total) rather than stall the run.
func (m *Monitor) Subscribe() (past []Frame, s *Subscription) {
	if m == nil {
		ch := make(chan Frame)
		close(ch)
		return nil, &Subscription{Frames: ch}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	past = m.lastFrames(len(m.frames))
	sub := &subscriber{ch: make(chan Frame, subBuffer)}
	if m.closed {
		close(sub.ch)
		return past, &Subscription{Frames: sub.ch, sub: sub}
	}
	id := m.nextSub
	m.nextSub++
	m.subs[id] = sub
	return past, &Subscription{Frames: sub.ch, sub: sub, cancel: func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if c, ok := m.subs[id]; ok {
			delete(m.subs, id)
			close(c.ch)
		}
	}}
}

// Close marks the run finished: subscriber channels close and the per-state
// run gauge releases this monitor. Frames and events stay readable for the
// flight recorder. Idempotent.
func (m *Monitor) Close() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for id, sub := range m.subs {
		delete(m.subs, id)
		close(sub.ch)
	}
	mStateRuns.With(string(m.state)).Add(-1)
}

// slope is the least-squares slope of ys over xs; 0 with fewer than two
// points or degenerate xs.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if len(xs) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

func medianDuration(durs []time.Duration) time.Duration {
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
