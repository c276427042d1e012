package hashtable

import (
	"reflect"
	"strings"
	"testing"

	"nulpa/internal/metrics"
	"nulpa/internal/telemetry"
)

// TestSnapshotDeltas exercises the per-iteration pattern the kernels use:
// each fold returns only what was counted since the previous fold, and the
// iteration's counts are the sum of its folds.
func TestSnapshotDeltas(t *testing.T) {
	var tl Tally
	tl.Accumulates, tl.Probes = 10, 20
	first := tl.Fold()
	tl.Accumulates, tl.Probes, tl.Collisions = 5, 7, 3
	second := tl.Fold()
	if want := (StatsSnapshot{Accumulates: 5, Probes: 7, Collisions: 3}); second != want {
		t.Errorf("second fold = %+v, want %+v", second, want)
	}
	if got, want := first.Add(second), (StatsSnapshot{Accumulates: 15, Probes: 27, Collisions: 3}); got != want {
		t.Errorf("sum of folds = %+v, want %+v", got, want)
	}
}

// TestTallyMirrorsStatsSnapshot pins the single-writer Tally lanes count
// into to StatsSnapshot: its exported counters must match the snapshot's
// fields one-to-one, so a counter added to one cannot be left out of the
// other.
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

// TestRecordMirrorsTally pins the per-iteration record to the tally: every
// StatsSnapshot field has an int64 Hash<Field> counter on IterRecord and
// IterRecord has no other Hash* field. The records are the only run-level
// home of these counts, so a new tally counter must not be silently
// dropped from them.
func TestRecordMirrorsTally(t *testing.T) {
	rt := reflect.TypeOf(telemetry.IterRecord{})
	sn := reflect.TypeOf(StatsSnapshot{})
	hash := 0
	for i := 0; i < rt.NumField(); i++ {
		if strings.HasPrefix(rt.Field(i).Name, "Hash") {
			hash++
		}
	}
	if hash != sn.NumField() {
		t.Errorf("IterRecord has %d Hash* fields, StatsSnapshot has %d", hash, sn.NumField())
	}
	for i := 0; i < sn.NumField(); i++ {
		f, ok := rt.FieldByName("Hash" + sn.Field(i).Name)
		if !ok {
			t.Errorf("IterRecord has no Hash%s for StatsSnapshot.%s", sn.Field(i).Name, sn.Field(i).Name)
			continue
		}
		if f.Type.Kind() != reflect.Int64 {
			t.Errorf("IterRecord.%s is %v, want int64", f.Name, f.Type)
		}
	}
}

// TestTallyFoldCopiesEveryCounter cross-checks Fold against reflection:
// each tally counter set to a distinct value must reach the matching field
// of the returned counts, and the fold must leave the tally zeroed.
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
	d := reflect.ValueOf(tl.Fold())
	for i := 0; i < d.NumField(); i++ {
		name := d.Type().Field(i).Name
		if g := d.Field(i).Int(); g != want[name] {
			t.Errorf("Fold %s = %d, want %d", name, g, want[name])
		}
	}
	if tl != (Tally{}) {
		t.Errorf("Fold left the tally at %+v, want zero", tl)
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
	tb.Accumulate(1, 1, nil)
	c0 := countBefore()

	on := NewArena(Float32, 64)
	tl := &Tally{}
	tb = on.TableFor(0, 8, QuadraticDouble)
	if !tb.Accumulate(1, 1, tl) {
		t.Fatal("accumulate failed")
	}
	if got := countBefore(); got != c0 {
		t.Fatalf("probe histogram advanced by %d before the fold, want 0", got-c0)
	}
	tl.Fold()
	if got := countBefore(); got != c0+1 {
		t.Fatalf("probe histogram advanced by %d with a Tally folded, want 1", got-c0)
	}

	off2 := NewArena(Float32, 64)
	tb = off2.TableFor(0, 8, QuadraticDouble)
	tb.Accumulate(2, 1, nil)
	if got := countBefore(); got != c0+1 {
		t.Fatalf("probe histogram advanced without a Tally (count %d, want %d)", got, c0+1)
	}
}
