package trace_test

import (
	"context"
	"testing"

	"nulpa/internal/trace"
)

// TestTraceHotPathZeroAllocWhenDisabled is the tracing guardrail, the twin
// of the telemetry one: with the tracer disabled (or the context span-free),
// every instrumentation site must cost zero allocations — Root returns nil,
// nil-span methods are no-ops, and Child on a span-free context is one
// context lookup. A regression here means span plumbing leaked onto the
// untraced hot path.
func TestTraceHotPathZeroAllocWhenDisabled(t *testing.T) {
	tr := trace.New(64)
	ctx := context.Background()

	if a := testing.AllocsPerRun(100, func() {
		_, span := tr.Root(ctx, "run")
		if span != nil {
			t.Fatal("disabled tracer returned a span")
		}
	}); a != 0 {
		t.Errorf("disabled Root allocates %v/op, want 0", a)
	}

	if a := testing.AllocsPerRun(100, func() {
		cctx, span := trace.Child(ctx, "iteration")
		span.SetInt("iter", 1)
		span.Event("retry", nil)
		span.End()
		_ = cctx
	}); a != 0 {
		t.Errorf("span-free Child + nil-span ops allocate %v/op, want 0", a)
	}

	if a := testing.AllocsPerRun(100, func() {
		if trace.IDFromContext(ctx) != "" {
			t.Fatal("span-free context produced a trace id")
		}
	}); a != 0 {
		t.Errorf("IDFromContext on a span-free context allocates %v/op, want 0", a)
	}
}
