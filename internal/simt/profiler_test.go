package simt

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"nulpa/internal/telemetry"
)

// captureProf records every Profiler callback for inspection.
type captureProf struct {
	mu     sync.Mutex
	begins []struct {
		kernel              string
		grid, blockDim, sms int
	}
	spans []struct {
		launch, sm            int
		start, end            time.Time
		blocks, phases, lanes int64
	}
	ends []struct {
		launch     int
		start, end time.Time
	}
}

func (p *captureProf) KernelBegin(kernel string, grid, blockDim, sms int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.begins = append(p.begins, struct {
		kernel              string
		grid, blockDim, sms int
	}{kernel, grid, blockDim, sms})
	return len(p.begins) - 1
}

func (p *captureProf) SMSpan(launch, sm int, start, end time.Time, blocks, phases, lanes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spans = append(p.spans, struct {
		launch, sm            int
		start, end            time.Time
		blocks, phases, lanes int64
	}{launch, sm, start, end, blocks, phases, lanes})
}

func (p *captureProf) KernelWork(int, telemetry.WorkCounts) {}

func (p *captureProf) KernelEnd(launch int, start, end time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ends = append(p.ends, struct {
		launch     int
		start, end time.Time
	}{launch, start, end})
}

type namedTestKernel struct{ PhaseFunc }

func (namedTestKernel) KernelName() string { return "named-test" }

func TestProfilerReceivesLaunchEvents(t *testing.T) {
	const grid, blockDim, phases, sms = 10, 32, 3, 4
	d := NewDevice(sms)
	prof := &captureProf{}
	d.Prof = prof

	k := namedTestKernel{PhaseFunc{Phases: phases, F: func(int, *Thread) {}}}
	d.LaunchKernel(context.Background(), grid, blockDim, k)

	if len(prof.begins) != 1 {
		t.Fatalf("KernelBegin calls = %d, want 1", len(prof.begins))
	}
	b := prof.begins[0]
	if b.kernel != "named-test" {
		t.Errorf("kernel name = %q, want named-test", b.kernel)
	}
	if b.grid != grid || b.blockDim != blockDim || b.sms != sms {
		t.Errorf("begin = %+v", b)
	}
	if len(prof.ends) != 1 || prof.ends[0].launch != 0 {
		t.Fatalf("ends = %+v", prof.ends)
	}
	if prof.ends[0].end.Before(prof.ends[0].start) {
		t.Error("launch end before start")
	}

	if len(prof.spans) != sms {
		t.Fatalf("SMSpan calls = %d, want %d", len(prof.spans), sms)
	}
	var blocks, phasesRun, lanes int64
	seen := map[int]bool{}
	for _, s := range prof.spans {
		if s.launch != 0 {
			t.Errorf("span launch id = %d", s.launch)
		}
		if seen[s.sm] {
			t.Errorf("SM %d reported twice", s.sm)
		}
		seen[s.sm] = true
		if s.end.Before(s.start) {
			t.Errorf("SM %d span end before start", s.sm)
		}
		blocks += s.blocks
		phasesRun += s.phases
		lanes += s.lanes
	}
	if blocks != grid {
		t.Errorf("blocks across SMs = %d, want %d", blocks, grid)
	}
	if phasesRun != grid*phases {
		t.Errorf("phase barriers = %d, want %d", phasesRun, grid*phases)
	}
	if lanes != grid*phases*blockDim {
		t.Errorf("lanes = %d, want %d", lanes, grid*phases*blockDim)
	}
}

func TestProfilerSMCountClampedToGrid(t *testing.T) {
	d := NewDevice(8)
	prof := &captureProf{}
	d.Prof = prof
	d.LaunchKernel(context.Background(), 3, 16, PhaseFunc{Phases: 1, F: func(int, *Thread) {}})
	if got := prof.begins[0].sms; got != 3 {
		t.Errorf("sms = %d, want 3 (clamped to grid)", got)
	}
	if len(prof.spans) != 3 {
		t.Errorf("spans = %d, want 3", len(prof.spans))
	}
}

func TestKernelNameFallsBackToType(t *testing.T) {
	k := PhaseFunc{Phases: 1, F: func(int, *Thread) {}}
	if name := KernelName(k); !strings.Contains(name, "PhaseFunc") {
		t.Errorf("KernelName(PhaseFunc) = %q, want type name", name)
	}
	if name := KernelName(namedTestKernel{}); name != "named-test" {
		t.Errorf("KernelName(named) = %q", name)
	}
}

func TestAllocOverBudgetIsErrOutOfMemory(t *testing.T) {
	d := NewDevice(1)
	d.MemBudget = 100
	err := d.Alloc(101)
	if err == nil {
		t.Fatal("over-budget alloc succeeded")
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("error %v is not ErrOutOfMemory", err)
	}
	if d.MemUsed() != 0 {
		t.Errorf("failed alloc reserved %d bytes", d.MemUsed())
	}
}

func TestFreeClampsAtZero(t *testing.T) {
	d := NewDevice(1)
	if err := d.Alloc(10); err != nil {
		t.Fatal(err)
	}
	d.Free(1000) // over-free: must clamp, not go negative
	if got := d.MemUsed(); got != 0 {
		t.Errorf("MemUsed after over-free = %d, want 0", got)
	}
}

func TestAllocFreeConcurrent(t *testing.T) {
	d := NewDevice(1)
	d.MemBudget = 64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := d.Alloc(8); err != nil {
					continue // budget contention is expected
				}
				if used := d.MemUsed(); used > 64 {
					t.Errorf("budget exceeded: %d", used)
				}
				d.Free(8)
			}
		}()
	}
	wg.Wait()
	if got := d.MemUsed(); got != 0 {
		t.Errorf("MemUsed after balanced alloc/free = %d", got)
	}
}
