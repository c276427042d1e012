package trace

import (
	"sort"
	"time"
)

// Export: Spans snapshots the ring buffer's completed spans as SpanData (the
// wire schema shared by every exporter: the flight bundle's span list and
// the /debug/trace endpoints), and BuildTree/Summaries shape them for the
// /debug/trace HTTP endpoints. The Chrome timeline lives in
// internal/telemetry, which merges SpanData with its profiler events.

// SpanData is the exported view of one completed span.
// Times are wall-clock; DurationUS and event offsets are microseconds, the
// unit the Chrome trace viewer uses.
type SpanData struct {
	// Trace is the 16-hex-digit trace id shared by every span of the run.
	Trace string `json:"trace"`
	// Span is the span's own id; Parent is the parent span's id, empty for
	// the root.
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	// Name identifies the operation: "job", "detect", "iteration",
	// "kernel:<name>".
	Name string `json:"name"`
	// Start is the span's wall-clock start.
	Start time.Time `json:"start"`
	// DurationUS is the span's wall time in microseconds.
	DurationUS float64 `json:"durationUs"`
	// Attrs are the span's key-value annotations (string, int64, or bool).
	Attrs map[string]any `json:"attrs,omitempty"`
	// Events are the span's point-in-time annotations, in record order.
	Events []EventData `json:"events,omitempty"`
}

// EventData is the exported view of one span event.
type EventData struct {
	Name string `json:"name"`
	// OffsetUS is microseconds since the span's start.
	OffsetUS float64        `json:"offsetUs"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// data snapshots a span under its lock.
func (s *Span) data() SpanData {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := SpanData{
		Trace:      s.trace.String(),
		Span:       s.id.String(),
		Name:       s.name,
		Start:      s.start,
		DurationUS: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
	}
	if s.parent != 0 {
		d.Parent = s.parent.String()
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			d.Attrs[k] = v
		}
	}
	for _, ev := range s.events {
		d.Events = append(d.Events, EventData{
			Name:     ev.Name,
			OffsetUS: float64(ev.At.Sub(s.start).Nanoseconds()) / 1e3,
			Attrs:    ev.Attrs,
		})
	}
	return d
}

// Spans snapshots the ring buffer: every completed span still resident, in
// completion order (oldest first).
func (t *Tracer) Spans() []SpanData {
	h := t.head.Load()
	c := uint64(len(t.ring))
	lo := uint64(0)
	if h > c {
		lo = h - c
	}
	out := make([]SpanData, 0, h-lo)
	for i := lo; i < h; i++ {
		if s := t.ring[i%c].Load(); s != nil {
			out = append(out, s.data())
		}
	}
	return out
}

// TraceSpans returns the resident spans of one trace, in completion order.
func (t *Tracer) TraceSpans(id TraceID) []SpanData {
	want := id.String()
	var out []SpanData
	for _, d := range t.Spans() {
		if d.Trace == want {
			out = append(out, d)
		}
	}
	return out
}

// Node is one span with its children — the tree shape /debug/trace/{id}
// returns.
type Node struct {
	SpanData
	Children []*Node `json:"children,omitempty"`
}

// BuildTree links spans into trees by parent id. Spans whose parent is not
// in the set (evicted from the ring, or still running) become roots, so a
// partially resident trace still renders. Roots and children are ordered by
// start time.
func BuildTree(spans []SpanData) []*Node {
	nodes := make(map[string]*Node, len(spans))
	for i := range spans {
		nodes[spans[i].Span] = &Node{SpanData: spans[i]}
	}
	var roots []*Node
	for _, n := range nodes {
		if p, ok := nodes[n.Parent]; ok && n.Parent != "" {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	byStart := func(ns []*Node) {
		sort.Slice(ns, func(a, b int) bool {
			if !ns[a].Start.Equal(ns[b].Start) {
				return ns[a].Start.Before(ns[b].Start)
			}
			return ns[a].Span < ns[b].Span
		})
	}
	byStart(roots)
	for _, n := range nodes {
		byStart(n.Children)
	}
	return roots
}

// Summary is one trace's row in the /debug/trace listing.
type Summary struct {
	Trace string `json:"trace"`
	// Root is the name of the trace's earliest parentless span (usually
	// "job" or "run"); empty while the root is still running.
	Root  string    `json:"root,omitempty"`
	Start time.Time `json:"start"`
	// DurationUS spans the earliest start to the latest end among resident
	// spans.
	DurationUS float64 `json:"durationUs"`
	// Spans is the resident span count.
	Spans int `json:"spans"`
}

// Summaries groups the resident spans by trace, newest trace first.
func Summaries(spans []SpanData) []Summary {
	type agg struct {
		sum       Summary
		end       time.Time
		rootStart time.Time
	}
	idx := make(map[string]int, 8)
	var aggs []*agg
	for _, d := range spans {
		i, ok := idx[d.Trace]
		if !ok {
			i = len(aggs)
			idx[d.Trace] = i
			aggs = append(aggs, &agg{sum: Summary{Trace: d.Trace, Start: d.Start}})
		}
		a := aggs[i]
		a.sum.Spans++
		if d.Start.Before(a.sum.Start) {
			a.sum.Start = d.Start
		}
		if end := d.Start.Add(time.Duration(d.DurationUS * 1e3)); end.After(a.end) {
			a.end = end
		}
		if d.Parent == "" && (a.sum.Root == "" || d.Start.Before(a.rootStart)) {
			a.sum.Root, a.rootStart = d.Name, d.Start
		}
	}
	out := make([]Summary, len(aggs))
	for i, a := range aggs {
		a.sum.DurationUS = float64(a.end.Sub(a.sum.Start).Nanoseconds()) / 1e3
		out[i] = a.sum
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Start.After(out[b].Start) })
	return out
}
