package simt

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"nulpa/internal/metrics"
)

// namedNop is a trivially cheap named kernel for profiler-wiring tests.
type namedNop struct{ sink []uint32 }

func (k *namedNop) NumPhases() int { return 2 }
func (k *namedNop) Phase(p int, t *Thread) {
	if id := t.GlobalID(); id < len(k.sink) {
		k.sink[id]++
	}
}
func (k *namedNop) KernelName() string { return "named-nop" }

func TestMetricsProfilerFeedsRegistry(t *testing.T) {
	dev := NewDevice(2)
	mp := NewMetricsProfiler()
	dev.Prof = mp

	before := mKernelLaunches.With("named-nop").Value()
	blocksBefore := mBlocks.Value()
	k := &namedNop{sink: make([]uint32, 8*32)}
	dev.Launch(8, 32, k)

	if got := mKernelLaunches.With("named-nop").Value(); got != before+1 {
		t.Fatalf("launch counter = %d, want %d", got, before+1)
	}
	if got := mBlocks.Value(); got != blocksBefore+8 {
		t.Fatalf("blocks counter advanced by %d, want 8", got-blocksBefore)
	}
	occ := mOccupancy.Value()
	if occ < 0 || occ > 1.5 { // tiny kernels can jitter above 1 by rounding
		t.Errorf("occupancy = %g, want roughly in [0,1]", occ)
	}
	// Completed launches must be dropped (bounded memory on long runs).
	mp.mu.Lock()
	pending := len(mp.launches)
	mp.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d launches retained after KernelEnd", pending)
	}
}

func TestContentionCountersExported(t *testing.T) {
	var b bytes.Buffer
	if err := metrics.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE simt_cas_retries_total counter",
		"simt_minmax_retries_total",
		"simt_floatadd_retries_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// recordingProf captures the event stream for MultiProfiler fan-out checks.
// SMSpan arrives concurrently from SM goroutines, so it locks like any real
// profiler must.
type recordingProf struct {
	mu                  sync.Mutex
	begins, spans, ends int
	ids                 []int
	base                int // offset so two children disagree about ids
}

func (r *recordingProf) KernelBegin(kernel string, grid, blockDim, sms int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.begins++
	id := r.base + r.begins
	r.ids = append(r.ids, id)
	return id
}
func (r *recordingProf) SMSpan(launch, sm int, start, end time.Time, blocks, phases, lanes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans++
	if len(r.ids) == 0 || launch != r.ids[len(r.ids)-1] {
		panic("SMSpan got a foreign launch id")
	}
}
func (r *recordingProf) KernelWork(int, int64, int64, int64, int64, int64) {}

func (r *recordingProf) KernelEnd(launch int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends++
	if len(r.ids) == 0 || launch != r.ids[len(r.ids)-1] {
		panic("KernelEnd got a foreign launch id")
	}
}

func TestMultiProfilerFanOutTranslatesIDs(t *testing.T) {
	a := &recordingProf{base: 100}
	b := &recordingProf{base: 9000}
	p := MultiProfiler(nil, a, nil, b)

	dev := NewDevice(2)
	dev.Prof = p
	dev.Launch(4, 8, &namedNop{sink: make([]uint32, 4*8)})
	dev.Launch(4, 8, &namedNop{sink: make([]uint32, 4*8)})

	for _, r := range []*recordingProf{a, b} {
		if r.begins != 2 || r.ends != 2 {
			t.Fatalf("fan-out: begins=%d ends=%d, want 2/2", r.begins, r.ends)
		}
		if r.spans == 0 {
			t.Fatal("fan-out: no SM spans delivered")
		}
	}
}

func TestMultiProfilerCollapses(t *testing.T) {
	if MultiProfiler() != nil || MultiProfiler(nil, nil) != nil {
		t.Error("empty MultiProfiler should be nil")
	}
	a := &recordingProf{}
	if got := MultiProfiler(nil, a); got != Profiler(a) {
		t.Error("single-profiler MultiProfiler should unwrap")
	}
}
