package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"nulpa/internal/trace"
)

// Chrome trace-event export: a JSON document loadable in chrome://tracing
// (or ui.perfetto.dev) that merges the device-level profiler timeline and
// the causal span tree of the same run. The timeline has one process for
// the simulated device with one thread row per SM — each kernel launch
// appears as a complete ("X") slice on every SM that executed blocks of its
// grid — and a second process for the algorithm run, with one slice per
// iteration plus counter ("C") series for ΔN, moves, reverts, pruned
// vertices and hashtable probes. The spans land in a third process, where
// Chrome's time-containment nesting reconstructs the run/job → detect →
// iteration → kernel tree and span events (retries, rollbacks, fallbacks)
// appear as instant markers at their offsets. Because both sides carry
// wall-clock timestamps, slices line up: the kernel span that covers an SM
// slice sits directly above it.

const (
	devicePid = 0 // process 0: the simulated device, one thread per SM
	runPid    = 1 // process 1: the algorithm run (iterations + counters)
	tracePid  = 2 // process 2: the run's spans
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

// WriteChromeTrace writes r's profiler timeline (when r is non-nil) and
// spans as one Chrome trace-event JSON document; the span process appears
// only when there are spans. The time base is the earliest instant either
// side knows about, so every timestamp is non-negative.
func WriteChromeTrace(w io.Writer, r *Recorder, spans []trace.SpanData) error {
	var base time.Time
	if r != nil {
		r.mu.Lock()
		base = r.base
		r.mu.Unlock()
	}
	for _, s := range spans {
		if !s.Start.IsZero() && (base.IsZero() || s.Start.Before(base)) {
			base = s.Start
		}
	}
	us := func(t time.Time) float64 {
		if t.IsZero() {
			return 0
		}
		return float64(t.Sub(base).Nanoseconds()) / 1e3
	}

	var evs []traceEvent
	if r != nil {
		evs = r.chromeEvents(base)
	}
	if len(spans) > 0 {
		evs = append(evs,
			traceEvent{Name: "process_name", Ph: "M", Pid: tracePid,
				Args: map[string]any{"name": "trace"}},
			traceEvent{Name: "thread_name", Ph: "M", Pid: tracePid, Tid: 0,
				Args: map[string]any{"name": "spans"}},
		)
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
	for _, s := range sorted {
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
			Pid: tracePid, Tid: 0, Args: args,
		})
		for _, e := range s.Events {
			evs = append(evs, traceEvent{
				Name: e.Name, Cat: "span-event", Ph: "i",
				Ts:  us(s.Start) + e.OffsetUS,
				Pid: tracePid, Tid: 0, S: "t", Args: e.Attrs,
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(traceDoc{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// chromeEvents renders the recorder's launches and iteration records as
// trace events with timestamps relative to base.
func (r *Recorder) chromeEvents(base time.Time) []traceEvent {
	r.mu.Lock()
	launches := make([]*Launch, len(r.launches))
	copy(launches, r.launches)
	iters := make([]iterEvent, len(r.iters))
	copy(iters, r.iters)
	r.mu.Unlock()

	us := func(t time.Time) float64 {
		if t.IsZero() {
			return 0
		}
		return float64(t.Sub(base).Nanoseconds()) / 1e3
	}

	var evs []traceEvent
	evs = append(evs,
		traceEvent{Name: "process_name", Ph: "M", Pid: devicePid,
			Args: map[string]any{"name": "simt device"}},
		traceEvent{Name: "process_name", Ph: "M", Pid: runPid,
			Args: map[string]any{"name": "lpa run"}},
		traceEvent{Name: "thread_name", Ph: "M", Pid: runPid, Tid: 0,
			Args: map[string]any{"name": "iterations"}},
	)

	// One named thread row per SM that appears in any launch.
	maxSM := -1
	for _, l := range launches {
		if n := len(l.SMs); n-1 > maxSM {
			maxSM = n - 1
		}
	}
	for sm := 0; sm <= maxSM; sm++ {
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: devicePid, Tid: sm,
			Args: map[string]any{"name": jsonSMName(sm)}})
	}

	for _, l := range launches {
		for _, sm := range l.SMs {
			if sm.Start.IsZero() && sm.End.IsZero() {
				continue
			}
			evs = append(evs, traceEvent{
				Name: l.Kernel, Cat: "kernel", Ph: "X",
				Ts: us(sm.Start), Dur: float64(sm.Busy().Nanoseconds()) / 1e3,
				Pid: devicePid, Tid: sm.SM,
				Args: map[string]any{
					"launch": l.ID, "grid": l.Grid, "blockDim": l.BlockDim,
					"blocks": sm.Blocks, "phases": sm.Phases, "lanes": sm.Lanes,
				},
			})
		}
	}

	for _, ev := range iters {
		rec := ev.rec
		start := ev.at.Add(-rec.Duration)
		evs = append(evs, traceEvent{
			Name: "iteration", Cat: "iter", Ph: "X",
			Ts: us(start), Dur: float64(rec.Duration.Nanoseconds()) / 1e3,
			Pid: runPid, Tid: 0,
			Args: map[string]any{
				"iter": rec.Iter, "pickLess": rec.PickLess, "crossCheck": rec.CrossCheck,
				"moves": rec.Moves, "reverts": rec.Reverts, "deltaN": rec.DeltaN,
				"pruned": rec.Pruned,
			},
		})
		ts := us(ev.at)
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

// jsonSMName zero-pads to two digits so chrome://tracing sorts rows
// numerically.
func jsonSMName(sm int) string { return fmt.Sprintf("SM %02d", sm) }
