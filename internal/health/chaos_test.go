package health_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"nulpa/internal/engine"
	_ "nulpa/internal/engine/all"
	"nulpa/internal/faults"
	"nulpa/internal/gen"
	"nulpa/internal/health"
	"nulpa/internal/nulpa"
	"nulpa/internal/simt"
	"nulpa/internal/telemetry"
)

// TestChaosFlightDump is the chaos-suite assertion for the flight recorder:
// every injected-fault run must produce a parseable, schema-valid flight
// dump, and when the run recovered from a kernel fault the dump's frames
// must carry the faulting iteration's work counters and the recorded
// fault:retry event must align with a frame that shows the retries.
func TestChaosFlightDump(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(500, 8, 11))
	sawRetry := false
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			det, err := engine.MustGet("nulpa")
			if err != nil {
				t.Fatal(err)
			}
			rec := telemetry.NewRecorder()
			mon := health.New(health.Config{Detector: "nulpa", Vertices: g.NumVertices()})
			rec.SetSink(mon)

			nopt := nulpa.DefaultOptions()
			nopt.Device = simt.NewDevice(4)
			nopt.Faults = faults.New(faults.Spec{KernelFailRate: 0.05, Seed: seed})
			opt := engine.DefaultOptions()
			opt.Extra = nopt
			opt.Profiler = rec

			res, err := runGuarded(t, func() (*engine.Result, error) { return det.Detect(g, opt) })
			reason := "request"
			switch {
			case err != nil:
				if !typedChaosError(err) {
					t.Fatalf("untyped chaos error: %v", err)
				}
				reason = "fault"
				mon.RecordEvent("fault", err.Error())
			default:
				if nres, ok := res.Extra.(*nulpa.Result); ok && nres.Degraded {
					reason = "degraded"
					mon.RecordEvent("fallback:direct", "simt backend degraded to direct")
				}
			}
			mon.Close()

			// Every faulted run yields a parseable dump.
			b := mon.Flight(reason)
			data, merr := json.Marshal(b)
			if merr != nil {
				t.Fatal(merr)
			}
			parsed, perr := health.DecodeFlight(data)
			if perr != nil {
				t.Fatalf("dump not parseable: %v", perr)
			}
			if verr := parsed.Validate(); verr != nil {
				t.Fatalf("dump invalid: %v", verr)
			}
			if len(parsed.Frames) == 0 {
				t.Fatal("dump has no frames")
			}

			// When recovery fired, the fault event must match a frame
			// carrying that iteration's retries and work counters, with the
			// derived oscillation/straggler fields present.
			for _, e := range parsed.Events {
				if e.Name != "fault:retry" {
					continue
				}
				sawRetry = true
				var frame *health.Frame
				for i := range parsed.Frames {
					if parsed.Frames[i].Iter == e.Iter && parsed.Frames[i].Retries > 0 {
						frame = &parsed.Frames[i]
					}
				}
				if frame == nil {
					t.Fatalf("fault:retry at iter %d has no matching frame with retries; frames: %+v",
						e.Iter, parsed.Frames)
				}
				if frame.EdgeVisits == 0 && frame.Moves == 0 {
					t.Fatalf("faulting iteration %d carries no work counters: %+v", e.Iter, frame)
				}
				if frame.OscillationScore < 0 || frame.OscillationScore > 1 {
					t.Fatalf("oscillation score out of range: %v", frame.OscillationScore)
				}
				if frame.StragglerShard != -1 {
					t.Fatalf("single-device frame names straggler shard %d", frame.StragglerShard)
				}
			}
		})
	}
	if !sawRetry {
		t.Fatal("no seed in 1..12 produced a recovered kernel fault — raise the rate or widen the seed range")
	}
}

// runGuarded and typedChaosError mirror the engine chaos-suite helpers: a
// watchdog turns a hang into a failure, and only typed errors are
// acceptable under fault injection.
func runGuarded(t *testing.T, f func() (*engine.Result, error)) (*engine.Result, error) {
	t.Helper()
	type outcome struct {
		res *engine.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{nil, fmt.Errorf("detector panicked: %v", r)}
			}
		}()
		res, err := f()
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(60 * time.Second):
		t.Fatalf("detector hung past the watchdog")
		return nil, nil
	}
}

func typedChaosError(err error) bool {
	return errors.Is(err, engine.ErrCanceled) || errors.Is(err, engine.ErrDeadline)
}
