package hashtable

import (
	"reflect"
	"sync/atomic"
	"testing"

	"nulpa/internal/metrics"
)

// TestStatsResetZeroesEveryCounter walks Stats with reflection so a counter
// added later cannot be forgotten by Reset: every atomic.Int64 field is set
// to a distinct non-zero value, then Reset must zero all of them.
func TestStatsResetZeroesEveryCounter(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	atomicInt64 := reflect.TypeOf(atomic.Int64{})
	n := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type != atomicInt64 {
			t.Fatalf("Stats.%s has type %v; extend this test for non-atomic.Int64 counters", f.Name, f.Type)
		}
		v.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(i + 1))
		n++
	}
	if n == 0 {
		t.Fatal("Stats has no counter fields")
	}
	s.Reset()
	for i := 0; i < v.NumField(); i++ {
		if got := v.Field(i).Addr().Interface().(*atomic.Int64).Load(); got != 0 {
			t.Errorf("Reset left Stats.%s = %d", v.Type().Field(i).Name, got)
		}
	}
}

// TestStatsSnapshotMirrorsStats enforces the documented invariant that
// StatsSnapshot's fields mirror Stats one-to-one, so a new counter cannot be
// silently dropped from snapshots (and hence from per-iteration telemetry).
func TestStatsSnapshotMirrorsStats(t *testing.T) {
	st := reflect.TypeOf(Stats{})
	sn := reflect.TypeOf(StatsSnapshot{})
	if st.NumField() != sn.NumField() {
		t.Fatalf("Stats has %d fields, StatsSnapshot has %d", st.NumField(), sn.NumField())
	}
	for i := 0; i < st.NumField(); i++ {
		if st.Field(i).Name != sn.Field(i).Name {
			t.Errorf("field %d: Stats.%s vs StatsSnapshot.%s", i, st.Field(i).Name, sn.Field(i).Name)
		}
		if sn.Field(i).Type.Kind() != reflect.Int64 {
			t.Errorf("StatsSnapshot.%s is %v, want int64", sn.Field(i).Name, sn.Field(i).Type)
		}
	}
}

// TestSnapshotCopiesEveryCounter cross-checks Snapshot against reflection:
// each counter set to a distinct value must appear in the matching snapshot
// field.
func TestSnapshotCopiesEveryCounter(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(100 + i))
	}
	snap := reflect.ValueOf(s.Snapshot())
	for i := 0; i < snap.NumField(); i++ {
		if got := snap.Field(i).Int(); got != int64(100+i) {
			t.Errorf("Snapshot.%s = %d, want %d", snap.Type().Field(i).Name, got, 100+i)
		}
	}
}

func TestSnapshotNilStats(t *testing.T) {
	var s *Stats
	if got := s.Snapshot(); got != (StatsSnapshot{}) {
		t.Errorf("nil Snapshot = %+v, want zero", got)
	}
}

// TestSnapshotDeltas exercises the per-iteration delta pattern the telemetry
// layer uses: snapshot, do work, snapshot, subtract.
func TestSnapshotDeltas(t *testing.T) {
	s := &Stats{}
	s.Accumulates.Store(10)
	s.Probes.Store(20)
	base := s.Snapshot()
	s.Accumulates.Add(5)
	s.Probes.Add(7)
	s.Collisions.Add(3)
	d := s.Snapshot().Sub(base)
	want := StatsSnapshot{Accumulates: 5, Probes: 7, Collisions: 3}
	if d != want {
		t.Errorf("delta = %+v, want %+v", d, want)
	}
}

// TestTallyMirrorsStatsSnapshot extends the mirror invariant to the
// single-writer Tally lanes count into: its exported counters must match
// StatsSnapshot one-to-one, so a counter added to Stats cannot be left
// uncounted on the lane path.
func TestTallyMirrorsStatsSnapshot(t *testing.T) {
	tt := reflect.TypeOf(Tally{})
	sn := reflect.TypeOf(StatsSnapshot{})
	var exported []reflect.StructField
	for i := 0; i < tt.NumField(); i++ {
		if tt.Field(i).IsExported() {
			exported = append(exported, tt.Field(i))
		}
	}
	if len(exported) != sn.NumField() {
		t.Fatalf("Tally has %d exported counters, StatsSnapshot has %d fields", len(exported), sn.NumField())
	}
	for i, f := range exported {
		if f.Name != sn.Field(i).Name {
			t.Errorf("field %d: Tally.%s vs StatsSnapshot.%s", i, f.Name, sn.Field(i).Name)
		}
		if f.Type.Kind() != reflect.Int64 {
			t.Errorf("Tally.%s is %v, want int64", f.Name, f.Type)
		}
	}
}

// TestTallyFoldCopiesEveryCounter cross-checks Fold against reflection:
// each tally counter set to a distinct value must reach the matching Stats
// field and the returned delta, and the fold must leave the tally zeroed.
func TestTallyFoldCopiesEveryCounter(t *testing.T) {
	var tl Tally
	v := reflect.ValueOf(&tl).Elem()
	want := map[string]int64{}
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() {
			v.Field(i).SetInt(int64(100 + i))
			want[f.Name] = int64(100 + i)
		}
	}
	s := &Stats{}
	s.Probes.Store(1) // Fold adds to the totals; it does not overwrite them
	d := reflect.ValueOf(tl.Fold(s))
	got := reflect.ValueOf(s.Snapshot())
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		total := want[name]
		if name == "Probes" {
			total++
		}
		if g := got.Field(i).Int(); g != total {
			t.Errorf("Stats.%s = %d after Fold, want %d", name, g, total)
		}
		if g := d.Field(i).Int(); g != want[name] {
			t.Errorf("Fold delta %s = %d, want %d", name, g, want[name])
		}
	}
	if tl != (Tally{}) {
		t.Errorf("Fold left the tally at %+v, want zero", tl)
	}
	// A nil Stats still drains the tally (metrics-only accounting).
	tl.Accumulates = 3
	if d := tl.Fold(nil); d.Accumulates != 3 || tl.Accumulates != 0 {
		t.Errorf("Fold(nil) = %+v, tally left %d; want 3 folded and 0 left", d, tl.Accumulates)
	}
}

// TestTallyBucketsMatchHistogram pins the tally's plain bucketing to the
// histogram's own: probe lengths bucketed by Tally and merged in bulk must
// leave hashtable_probe_length exactly where one Observe per length would.
func TestTallyBucketsMatchHistogram(t *testing.T) {
	var tl Tally
	ref := metrics.NewRegistry().Histogram("ref", "", metrics.ExpBuckets(1, 2, probeBuckets))
	merged := metrics.NewRegistry().Histogram("merged", "", metrics.ExpBuckets(1, 2, probeBuckets))
	for p := int64(1); p <= 1500; p++ {
		tl.hit(p, p-1)
		ref.Observe(float64(p))
	}
	merged.Merge(tl.probeLen[:], float64(tl.Probes-tl.failedProbes))
	if merged.Count() != ref.Count() || merged.Sum() != ref.Sum() {
		t.Fatalf("merged count/sum = %d/%v, observed %d/%v", merged.Count(), merged.Sum(), ref.Count(), ref.Sum())
	}
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		if a, b := merged.Quantile(q), ref.Quantile(q); a != b {
			t.Errorf("q%.2f: merged %v, observed %v", q, a, b)
		}
	}
}

// TestMetricsRideStatsGate pins the metrics bridge to the counting gate:
// probe histogram and counters advance only for accumulates given a Tally,
// and only when that tally is folded, so the uncounted hot path stays
// metric-free too.
func TestMetricsRideStatsGate(t *testing.T) {
	countBefore := func() int64 { return mProbeLen.Count() }

	off := NewArena(Float32, 64)
	tb := off.TableFor(0, 8, QuadraticDouble)
	tb.Accumulate(1, 1, false, nil)
	c0 := countBefore()

	on := NewArena(Float32, 64)
	tl := &Tally{}
	tb = on.TableFor(0, 8, QuadraticDouble)
	if !tb.Accumulate(1, 1, false, tl) {
		t.Fatal("accumulate failed")
	}
	if got := countBefore(); got != c0 {
		t.Fatalf("probe histogram advanced by %d before the fold, want 0", got-c0)
	}
	tl.Fold(&Stats{})
	if got := countBefore(); got != c0+1 {
		t.Fatalf("probe histogram advanced by %d with a Tally folded, want 1", got-c0)
	}

	off2 := NewArena(Float32, 64)
	tb = off2.TableFor(0, 8, QuadraticDouble)
	tb.Accumulate(2, 1, false, nil)
	if got := countBefore(); got != c0+1 {
		t.Fatalf("probe histogram advanced without a Tally (count %d, want %d)", got, c0+1)
	}
}
