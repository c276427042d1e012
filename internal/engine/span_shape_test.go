package engine_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/nulpa"
	"nulpa/internal/telemetry"
	"nulpa/internal/trace"
)

// superstepCounter is an IterSink that counts the supersteps it is fed.
type superstepCounter struct{ n atomic.Int64 }

func (c *superstepCounter) ObserveIteration(telemetry.IterRecord) {}
func (c *superstepCounter) ObserveSuperstep(int, []time.Duration, time.Duration, int64) {
	c.n.Add(1)
}

// spanParents runs detector name on the web conformance graph under a fresh
// trace and returns, for each span name, the names of the spans it hangs
// under, with the run's iteration count and the supersteps its recorder's
// sink observed.
func spanParents(t *testing.T, name string, extra any) (parents map[string]map[string]bool, iters int, supersteps int64) {
	t.Helper()
	det, err := engine.MustGet(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(0)
	tr.SetEnabled(true)
	ctx, root := tr.Root(context.Background(), "run")
	rec := telemetry.NewRecorder()
	sink := &superstepCounter{}
	rec.SetSink(sink)
	opt := engine.DefaultOptions()
	opt.Context = ctx
	opt.Workers = 1
	opt.Profiler = rec
	opt.Extra = extra
	res, err := det.Detect(conformanceGraphs()["web"], opt)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	spans := tr.TraceSpans(root.TraceID())
	names := make(map[string]string, len(spans))
	for _, s := range spans {
		names[s.Span] = s.Name
	}
	parents = map[string]map[string]bool{}
	for _, s := range spans {
		key := s.Name
		if strings.HasPrefix(key, "kernel:") {
			key = "kernel:*"
		}
		if parents[key] == nil {
			parents[key] = map[string]bool{}
		}
		parents[key][names[s.Parent]] = true
	}
	return parents, res.Iterations, sink.n.Load()
}

// TestSpanShapeSingleDeviceVsSharded pins the span tree of the two ν-LPA
// device configurations. A single-device run is the one-shard case run
// inline: its kernel launches are direct children of the iteration span,
// with no shard-iteration or halo-exchange span and no superstep record. A
// two-shard run launches its kernels under per-shard spans and exchanges
// halos once per superstep. The depth-first chain check of
// trace.ConnectedTrace accepts both shapes, so it cannot tell them apart.
func TestSpanShapeSingleDeviceVsSharded(t *testing.T) {
	only := func(set map[string]bool, want string) bool { return len(set) == 1 && set[want] }

	parents, _, steps := spanParents(t, "nulpa", nil)
	if !only(parents["kernel:*"], "iteration") {
		t.Errorf("nulpa: kernel spans hang under %v, want only iteration", parents["kernel:*"])
	}
	for _, name := range []string{"shard-iteration", "halo-exchange"} {
		if parents[name] != nil {
			t.Errorf("nulpa: run has %s spans", name)
		}
	}
	if steps != 0 {
		t.Errorf("nulpa: %d supersteps reached the sink, want 0", steps)
	}

	sharded := nulpa.DefaultShardedOptions()
	sharded.Shards = 2
	parents, iters, steps := spanParents(t, "nulpa-sharded", sharded)
	if !only(parents["kernel:*"], "shard-iteration") {
		t.Errorf("sharded: kernel spans hang under %v, want only shard-iteration", parents["kernel:*"])
	}
	for _, name := range []string{"shard-iteration", "halo-exchange"} {
		if !only(parents[name], "iteration") {
			t.Errorf("sharded: %s spans hang under %v, want only iteration", name, parents[name])
		}
	}
	if steps != int64(iters) || steps == 0 {
		t.Errorf("sharded: %d supersteps reached the sink over %d iterations", steps, iters)
	}
}
