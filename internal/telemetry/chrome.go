package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Chrome trace-event export: a JSON document loadable in chrome://tracing
// (or ui.perfetto.dev). The timeline has one process for the simulated
// device with one thread row per SM — each kernel launch appears as a
// complete ("X") slice on every SM that executed blocks of its grid — and a
// second process for the algorithm run, with one slice per iteration plus
// counter ("C") series for ΔN, moves, reverts, pruned vertices and
// hashtable probes.

const (
	devicePid = 0 // process 0: the simulated device, one thread per SM
	runPid    = 1 // process 1: the algorithm run (iterations + counters)
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

// WriteChromeTrace writes the recorded launches and iteration records as a
// Chrome trace-event JSON document.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	r.mu.Lock()
	base := r.base
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(traceDoc{TraceEvents: r.chromeEvents(base), DisplayTimeUnit: "ms"})
}

// chromeEvents renders the recorder's launches and iteration records as
// trace events with timestamps relative to base. It is the shared body of
// WriteChromeTrace and WriteUnifiedChromeTrace, which differ only in the
// base they pick and in what else shares the document.
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
