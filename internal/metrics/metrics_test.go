package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "other help"); again != c {
		t.Fatal("re-registering a counter did not return the existing one")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind clash")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", ExpBuckets(0.001, 4, 6))
	h.Observe(0.5) // plain observation leaves no exemplar
	if h.Exemplar() != nil {
		t.Fatal("exemplar set by plain Observe")
	}
	h.ObserveExemplar(0.25, "") // empty trace id records nothing
	if h.Exemplar() != nil {
		t.Fatal("exemplar set for empty trace id")
	}
	h.ObserveExemplar(1.5, "deadbeefdeadbeef")
	ex := h.Exemplar()
	if ex == nil || ex.TraceID != "deadbeefdeadbeef" || ex.Value != 1.5 {
		t.Fatalf("exemplar = %+v", ex)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3 (exemplified observations still count)", h.Count())
	}

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	txt := buf.String()
	if !strings.Contains(txt, `lat_seconds_bucket{le="+Inf"} 3 # {trace_id="deadbeefdeadbeef"} 1.5`) {
		t.Errorf("exposition lacks the OpenMetrics exemplar:\n%s", txt)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

func TestHistogramCountsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", ExpBuckets(1, 2, 8)) // bounds 1..128
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %g", h.Sum())
	}
	// The buckets a scrape estimates quantiles from: bucket i holds
	// (bounds[i-1], bounds[i]], so of 1..100 the first holds 1, (32,64]
	// holds 33..64 and (64,128] holds 65..100.
	for i, want := range map[int]int64{0: 1, 6: 32, 7: 36, 8: 0} {
		if c := h.counts[i].Load(); c != want {
			t.Errorf("bucket %d holds %d, want %d", i, c, want)
		}
	}
	// Overflow: observations beyond the last bound land in +Inf.
	h.Observe(1e9)
	if c := h.counts[8].Load(); c != 1 {
		t.Errorf("+Inf bucket holds %d after an overflow, want 1", c)
	}
}

func TestVecChildrenAreStable(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("runs_total", "", "detector")
	a := v.With("nulpa")
	a.Add(3)
	if b := v.With("nulpa"); b != a {
		t.Fatal("With returned a different child for the same label")
	}
	v.With("flpa").Inc()

	hv := r.HistogramVec("hv", "", "k", ExpBuckets(0.001, 10, 3))
	hv.With("x").Observe(0.5)
	if hv.With("x").Count() != 1 {
		t.Fatal("histogram child lost its observation")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "Completed jobs.").Add(7)
	r.Gauge("occupancy", "SM occupancy.").Set(0.75)
	r.GaugeFunc("fn_gauge", "", func() float64 { return 42 })
	h := r.Histogram("lat_seconds", "Latency.", ExpBuckets(0.001, 10, 3))
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(99)
	v := r.CounterVec("runs_total", "Runs.", "detector")
	v.With("nulpa").Add(2)
	v.With(`we"ird\label`).Inc()

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP jobs_total Completed jobs.",
		"# TYPE jobs_total counter",
		"jobs_total 7",
		"occupancy 0.75",
		"fn_gauge 42",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.001"} 1`,
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
		`runs_total{detector="nulpa"} 2`,
		`runs_total{detector="we\"ird\\label"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Each # TYPE line must precede its samples and appear exactly once.
	if strings.Count(out, "# TYPE lat_seconds histogram") != 1 {
		t.Error("duplicate TYPE line")
	}
}

func TestCounterExemplarExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fallbacks_total", "Backend fallbacks.")
	c.Inc()           // no exemplar yet
	c.IncExemplar("") // empty trace id records no exemplar
	c.IncExemplar("00000000000000ab")

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `fallbacks_total 3 # {trace_id="00000000000000ab"} 1 `) {
		t.Errorf("counter exemplar missing:\n%s", out)
	}
	ex := c.Exemplar()
	if ex == nil || ex.TraceID != "00000000000000ab" || ex.Time.IsZero() {
		t.Errorf("Exemplar() = %+v", ex)
	}

	// A counter without an exemplar renders a plain sample line.
	r2 := NewRegistry()
	r2.Counter("plain_total", "").Inc()
	b.Reset()
	if err := r2.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "plain_total 1\n") {
		t.Errorf("plain counter line drifted:\n%s", b.String())
	}
}

func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", ExpBuckets(1, 2, 10))
	v := r.CounterVec("v_total", "", "k")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 700))
				v.With("abc").Inc()
				if i%100 == 0 {
					var b bytes.Buffer
					r.WritePrometheus(&b)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %g, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
	if v.With("abc").Value() != 8000 {
		t.Errorf("vec = %d, want 8000", v.With("abc").Value())
	}
}

// TestHotPathZeroAlloc is the metrics-plane guardrail, matching PR 1's
// zero-alloc-when-disabled rule: updating any metric — counter add, gauge
// set, histogram observe, and a warm family lookup — must not allocate while
// no scrape is running.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", ExpBuckets(1e-6, 4, 16))
	v := r.CounterVec("v_total", "", "k")
	v.With("warm").Inc() // create the child outside the measured region

	if a := testing.AllocsPerRun(100, func() {
		c.Add(3)
		g.Set(1.5)
		g.Add(0.5)
		h.Observe(0.123)
		v.With("warm").Inc()
	}); a != 0 {
		t.Fatalf("metrics hot path allocates: %v allocs/op, want 0", a)
	}

	// Out-of-range observations take the underflow/overflow branches; those
	// must be as cheap as the common case — the health monitor feeds
	// iteration durations here on every superstep.
	if a := testing.AllocsPerRun(100, func() {
		h.Observe(1e-12) // below the first bound
		h.Observe(1e9)   // beyond the last bound (+Inf bucket)
		h.Observe(math.Inf(1))
	}); a != 0 {
		t.Fatalf("histogram edge observations allocate: %v allocs/op, want 0", a)
	}
	if h.Count() == 0 {
		t.Fatal("edge observations were dropped")
	}
}

func TestFormatFloat(t *testing.T) {
	if formatFloat(math.Inf(1)) != "+Inf" || formatFloat(math.Inf(-1)) != "-Inf" {
		t.Error("infinity formatting broken")
	}
	if formatFloat(0.001) != "0.001" {
		t.Errorf("formatFloat(0.001) = %s", formatFloat(0.001))
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("c_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", "", ExpBuckets(1e-6, 4, 16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) * 1e-5)
	}
}

func BenchmarkVecWith(b *testing.B) {
	v := NewRegistry().CounterVec("v_total", "", "k")
	v.With("warm")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("warm").Inc()
	}
}
