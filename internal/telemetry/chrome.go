package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"nulpa/internal/trace"
)

// Chrome trace-event export: a JSON document loadable in chrome://tracing
// (or ui.perfetto.dev) that draws every interval of a run once. The spans
// are the one timeline of intervals (run/job → detect → iteration →
// kernel); Chrome's time-containment nesting rebuilds that tree on their
// rows, and span events (retries, rollbacks, fallbacks) appear as instant
// markers at their offsets. The recorder adds what has no span form: each
// launch's per-SM busy slices, one thread row per SM of each device, and
// the iteration records' counter ("C") series for ΔN, moves, reverts,
// pruned vertices and hashtable probes, each stamped at the end of its
// iteration's span. Because both sides carry wall-clock timestamps, slices
// line up: the kernel span that covers an SM slice sits directly above it.

const (
	devicePid = 0 // process 0: the simulated devices, one thread per device SM
	runPid    = 1 // process 1: the run's per-iteration counter series
	tracePid  = 2 // process 2: the run's spans, one thread per shard
)

// traceEvent is one entry of the trace-event format; timestamps and
// durations are in microseconds. S is the instant-event scope ("t" = thread),
// set only on ph "i" events.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace writes r's launches and iteration counters (when r is
// non-nil) and spans as one Chrome trace-event JSON document; the span
// process appears only when there are spans, and counters only for the
// iteration records whose span is among them. The time base is the
// earliest launch or span start, so every timestamp is non-negative.
func WriteChromeTrace(w io.Writer, r *Recorder, spans []trace.SpanData) error {
	var launches []Launch
	var iters []IterRecord
	if r != nil {
		launches, iters = r.Launches(), r.IterRecords()
	}
	var base time.Time
	earliest := func(t time.Time) {
		if !t.IsZero() && (base.IsZero() || t.Before(base)) {
			base = t
		}
	}
	for _, l := range launches {
		earliest(l.Start)
	}
	for _, s := range spans {
		earliest(s.Start)
	}
	us := func(t time.Time) float64 {
		if t.IsZero() {
			return 0
		}
		return float64(t.Sub(base).Nanoseconds()) / 1e3
	}

	// Parents before children, earlier spans first: Chrome nests X slices on
	// one thread row by time containment, and sorting by start (duration
	// breaking ties, longer first) hands it the tree in the right order.
	sorted := make([]trace.SpanData, len(spans))
	copy(sorted, spans)
	sort.SliceStable(sorted, func(i, j int) bool {
		if !sorted[i].Start.Equal(sorted[j].Start) {
			return sorted[i].Start.Before(sorted[j].Start)
		}
		if sorted[i].DurationUS != sorted[j].DurationUS {
			return sorted[i].DurationUS > sorted[j].DurationUS
		}
		return sorted[i].Span < sorted[j].Span
	})

	var evs []traceEvent
	if r != nil {
		evs = append(evs, deviceEvents(launches, us)...)
		evs = append(evs, counterEvents(iters, sorted, us)...)
	}
	evs = append(evs, spanEvents(sorted, us)...)

	enc := json.NewEncoder(w)
	return enc.Encode(traceDoc{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// deviceEvents renders each launch as one X slice per SM that ran it. SM s
// of device d draws on row d·stride+s, stride being the widest launch, so
// the devices of a sharded run never share a row.
func deviceEvents(launches []Launch, us func(time.Time) float64) []traceEvent {
	if len(launches) == 0 {
		return nil
	}
	evs := []traceEvent{{Name: "process_name", Ph: "M", Pid: devicePid,
		Args: map[string]any{"name": "simt device"}}}
	stride, devices := 0, 0
	for _, l := range launches {
		stride, devices = max(stride, len(l.SMs)), max(devices, l.Device+1)
	}
	for d := 0; d < devices; d++ {
		for sm := 0; sm < stride; sm++ {
			evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: devicePid, Tid: d*stride + sm,
				Args: map[string]any{"name": fmt.Sprintf("device %d SM %02d", d, sm)}})
		}
	}
	for _, l := range launches {
		for _, sm := range l.SMs {
			evs = append(evs, traceEvent{
				Name: l.Kernel, Cat: "kernel", Ph: "X",
				Ts: us(sm.Start), Dur: float64(sm.Busy().Nanoseconds()) / 1e3,
				Pid: devicePid, Tid: l.Device*stride + sm.SM,
				Args: map[string]any{
					"launch": l.ID, "grid": l.Grid, "blockDim": l.BlockDim,
					"blocks": sm.Blocks, "phases": sm.Phases, "lanes": sm.Lanes,
				},
			})
		}
	}
	return evs
}

// counterEvents stamps each iteration record's counter series at the end of
// its iteration span. Records and spans pair in loop order counting back
// from the newest, since the span ring drops the oldest spans first; a
// record whose span is gone has no place on the timeline and is skipped.
func counterEvents(iters []IterRecord, sorted []trace.SpanData, us func(time.Time) float64) []traceEvent {
	var ends []float64
	for _, s := range sorted {
		if s.Name == "iteration" {
			ends = append(ends, us(s.Start)+s.DurationUS)
		}
	}
	n := min(len(iters), len(ends))
	if n == 0 {
		return nil
	}
	evs := []traceEvent{{Name: "process_name", Ph: "M", Pid: runPid,
		Args: map[string]any{"name": "lpa run"}}}
	iters, ends = iters[len(iters)-n:], ends[len(ends)-n:]
	for i, rec := range iters {
		ts := ends[i]
		evs = append(evs,
			traceEvent{Name: "labels", Ph: "C", Ts: ts, Pid: runPid,
				Args: map[string]any{"deltaN": rec.DeltaN, "moves": rec.Moves, "reverts": rec.Reverts}},
			traceEvent{Name: "pruning", Ph: "C", Ts: ts, Pid: runPid,
				Args: map[string]any{"pruned": rec.Pruned}},
			traceEvent{Name: "hashtable", Ph: "C", Ts: ts, Pid: runPid,
				Args: map[string]any{"probes": rec.HashProbes, "collisions": rec.HashCollisions,
					"fallbacks": rec.HashFallbacks}},
		)
	}
	return evs
}

// spanEvents renders the spans, in the order given, as X slices plus
// instant events. A span draws on the row of its nearest "shard-iteration"
// ancestor, itself included: shard s on row s+1, everything outside a
// shard on row 0, so the concurrent shards of a sharded run never overlap
// on one row.
func spanEvents(sorted []trace.SpanData, us func(time.Time) float64) []traceEvent {
	if len(sorted) == 0 {
		return nil
	}
	byID := make(map[string]*trace.SpanData, len(sorted))
	for i := range sorted {
		byID[sorted[i].Span] = &sorted[i]
	}
	rows := make([]int, len(sorted))
	for i := range sorted {
		for p := &sorted[i]; p != nil; p = byID[p.Parent] {
			if shard, ok := p.Attrs["shard"].(int64); ok && p.Name == "shard-iteration" {
				rows[i] = int(shard) + 1
				break
			}
		}
	}

	evs := []traceEvent{{Name: "process_name", Ph: "M", Pid: tracePid,
		Args: map[string]any{"name": "trace"}}}
	for tid := range slices.Max(rows) + 1 {
		name := "spans"
		if tid > 0 {
			name = fmt.Sprintf("shard %d", tid-1)
		}
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: tracePid, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	for i, s := range sorted {
		tid := rows[i]
		args := map[string]any{"trace": s.Trace, "span": s.Span}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		evs = append(evs, traceEvent{
			Name: s.Name, Cat: "span", Ph: "X",
			Ts: us(s.Start), Dur: s.DurationUS,
			Pid: tracePid, Tid: tid, Args: args,
		})
		for _, e := range s.Events {
			evs = append(evs, traceEvent{
				Name: e.Name, Cat: "span-event", Ph: "i",
				Ts:  us(s.Start) + e.OffsetUS,
				Pid: tracePid, Tid: tid, S: "t", Args: e.Attrs,
			})
		}
	}
	return evs
}
