package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the JSONL span golden file")

// deterministic returns an enabled tracer with a fixed id sequence and a
// clock that advances 100µs per reading — every derived timestamp and id is
// reproducible.
func deterministic(capacity int) *Tracer {
	t := New(capacity)
	t.SetEnabled(true)
	t.seed = 1
	base := time.Date(2025, 1, 2, 3, 4, 5, 0, time.UTC)
	var ticks int64
	t.now = func() time.Time {
		ticks++
		return base.Add(time.Duration(ticks) * 100 * time.Microsecond)
	}
	return t
}

func TestDisabledTracerCreatesNoSpans(t *testing.T) {
	tr := New(8)
	ctx, span := tr.Root(context.Background(), "job")
	if span != nil {
		t.Fatal("disabled tracer returned a span")
	}
	if FromContext(ctx) != nil {
		t.Fatal("disabled tracer put a span in the context")
	}
	// Nil spans are inert through every method.
	span.SetString("k", "v")
	span.SetInt("i", 1)
	span.SetBool("b", true)
	span.Event("e", nil)
	span.End()
	if _, child := Child(ctx, "iteration"); child != nil {
		t.Fatal("Child of a span-free context returned a span")
	}
	if rec, _, _ := tr.Stats(); rec != 0 {
		t.Fatalf("disabled tracer recorded %d spans", rec)
	}
}

// TestSpanHotPathZeroAlloc is the tracer guardrail, matching the telemetry
// layer's zero-alloc-when-disabled rule: with tracing off, starting and
// ending a root span, and starting a child from a span-free context, must
// not allocate. internal/bench re-checks this next to the PR 1 guard.
func TestSpanHotPathZeroAlloc(t *testing.T) {
	tr := New(8)
	ctx := context.Background()
	if a := testing.AllocsPerRun(200, func() {
		c, s := tr.Root(ctx, "job")
		s.SetInt("iter", 1)
		s.End()
		_, cs := Child(c, "iteration")
		cs.Event("retry", nil)
		cs.End()
	}); a != 0 {
		t.Fatalf("disabled span hot path allocates %v allocs/op, want 0", a)
	}
}

func TestSpanTreePropagation(t *testing.T) {
	tr := deterministic(64)
	ctx, root := tr.Root(context.Background(), "job")
	if root == nil {
		t.Fatal("enabled tracer returned nil root")
	}
	ictx, iter := Child(ctx, "iteration")
	_, kern := Child(ictx, "kernel:thread-per-vertex")
	kern.End()
	iter.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("resident spans = %d, want 3", len(spans))
	}
	// Completion order: kernel, iteration, job.
	if spans[0].Name != "kernel:thread-per-vertex" || spans[2].Name != "job" {
		t.Fatalf("completion order wrong: %q ... %q", spans[0].Name, spans[2].Name)
	}
	for _, d := range spans {
		if d.Trace != root.TraceID().String() {
			t.Fatalf("span %q trace = %s, want %s", d.Name, d.Trace, root.TraceID())
		}
	}
	roots := BuildTree(spans)
	if len(roots) != 1 || roots[0].Name != "job" {
		t.Fatalf("tree roots = %+v, want single job root", roots)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "iteration" {
		t.Fatal("iteration is not the job's child")
	}
	if kids := roots[0].Children[0].Children; len(kids) != 1 || kids[0].Name != "kernel:thread-per-vertex" {
		t.Fatal("kernel is not the iteration's child")
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	tr := deterministic(4)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		_, s := tr.Root(ctx, fmt.Sprintf("span-%d", i))
		s.End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("resident spans = %d, want ring capacity 4", len(spans))
	}
	for i, d := range spans {
		if want := fmt.Sprintf("span-%d", i+6); d.Name != want {
			t.Fatalf("slot %d = %q, want %q (newest 4 survive)", i, d.Name, want)
		}
	}
	rec, dropped, _ := tr.Stats()
	if rec != 10 || dropped != 6 {
		t.Fatalf("stats = (%d recorded, %d dropped), want (10, 6)", rec, dropped)
	}
}

func TestHeadSampling(t *testing.T) {
	tr := deterministic(64)
	tr.SetSampleEvery(4)
	kept := 0
	for i := 0; i < 20; i++ {
		ctx, s := tr.Root(context.Background(), "job")
		if s != nil {
			kept++
			// The whole trace follows the root's decision: children exist
			// only for sampled roots.
			if _, c := Child(ctx, "iteration"); c == nil {
				t.Fatal("sampled root produced no child")
			}
		} else if FromContext(ctx) != nil {
			t.Fatal("unsampled root leaked a span into the context")
		}
		s.End()
	}
	if kept != 5 {
		t.Fatalf("kept %d of 20 roots with 1-in-4 sampling, want 5", kept)
	}
	if _, _, sampledOut := tr.Stats(); sampledOut != 15 {
		t.Fatalf("sampledOut = %d, want 15", sampledOut)
	}
}

func TestConcurrentEnds(t *testing.T) {
	tr := deterministic(128)
	tr.now = time.Now // the fixed clock is not concurrency-safe
	ctx, root := tr.Root(context.Background(), "job")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, s := Child(ctx, "kernel:worker")
			s.SetInt("sm", int64(i))
			s.Event("retry", nil)
			s.End()
			s.End() // idempotent
		}(i)
	}
	wg.Wait()
	root.End()
	if rec, _, _ := tr.Stats(); rec != 33 {
		t.Fatalf("recorded %d spans, want 33 (32 children + root)", rec)
	}
}

// TestWriteJSONLGolden pins the SpanData wire schema (the flight bundle's
// span list) byte-for-byte, written as JSONL, one encoded span per line:
// field names, id rendering, timestamp format, attribute and event
// encoding. Regenerate deliberately with
// `go test ./internal/trace -run Golden -update`.
func TestWriteJSONLGolden(t *testing.T) {
	tr := deterministic(64)
	ctx, job := tr.Root(context.Background(), "job")
	job.SetString("algo", "nulpa")
	job.SetInt("id", 7)
	ictx, iter := Child(ctx, "iteration")
	iter.SetInt("iter", 0)
	iter.SetInt("deltaN", 512)
	iter.SetBool("pickLess", true)
	iter.Event("rollback", map[string]any{"attempt": int64(1)})
	_, kern := Child(ictx, "kernel:block-per-vertex")
	kern.SetInt("grid", 64)
	kern.SetInt("blockDim", 256)
	kern.Event("fault:stall", nil)
	kern.End()
	iter.End()
	job.End()

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, d := range tr.Spans() {
		if err := enc.Encode(d); err != nil {
			t.Fatal(err)
		}
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "spans_golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("JSONL schema drifted from golden file.\ngot:\n%s\nwant:\n%s\n(run with -update if the change is intentional)", got, want)
	}

	// Schema sanity on top of the byte comparison: every line decodes into
	// SpanData with the required fields present.
	dec := json.NewDecoder(bytes.NewReader(got))
	lines := 0
	for dec.More() {
		var d SpanData
		if err := dec.Decode(&d); err != nil {
			t.Fatalf("line %d: %v", lines+1, err)
		}
		lines++
		if len(d.Trace) != 16 || len(d.Span) != 16 || d.Name == "" || d.Start.IsZero() {
			t.Fatalf("line %d missing required fields: %+v", lines, d)
		}
	}
	if lines != 3 {
		t.Fatalf("golden has %d spans, want 3", lines)
	}
}

func TestParseTraceID(t *testing.T) {
	tr := deterministic(8)
	_, s := tr.Root(context.Background(), "job")
	id := s.TraceID()
	s.End()
	got, err := ParseTraceID(id.String())
	if err != nil || got != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v; want %v", id.String(), got, err, id)
	}
	if _, err := ParseTraceID("nope"); err == nil {
		t.Fatal("ParseTraceID accepted a malformed id")
	}
	if spans := tr.TraceSpans(id); len(spans) != 1 {
		t.Fatalf("TraceSpans(%v) = %d spans, want 1", id, len(spans))
	}
}

func TestSetFloatAttr(t *testing.T) {
	var nilSpan *Span
	nilSpan.SetFloat("x", 1.5) // nil-span contract: no panic
	tr := deterministic(8)
	_, s := tr.Root(context.Background(), "op")
	s.SetFloat("waitMs", 12.5)
	s.End()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("resident spans = %d, want 1", len(spans))
	}
	if got, ok := spans[0].Attrs["waitMs"].(float64); !ok || got != 12.5 {
		t.Fatalf("waitMs attr = %v, want 12.5", spans[0].Attrs["waitMs"])
	}
}
