package simt

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"nulpa/internal/telemetry"
)

type namedTestKernel struct{ PhaseFunc }

func (namedTestKernel) KernelName() string { return "named-test" }

func TestProfilerReceivesLaunchEvents(t *testing.T) {
	const grid, blockDim, phases, sms = 10, 32, 3, 4
	d := NewDevice(sms)
	rec := telemetry.NewRecorder()
	d.Prof = rec

	k := namedTestKernel{PhaseFunc{Phases: phases, F: func(int, *Thread) {}}}
	d.LaunchKernel(context.Background(), grid, blockDim, k)

	ls := rec.Launches()
	if len(ls) != 1 {
		t.Fatalf("launches = %d, want 1", len(ls))
	}
	l := ls[0]
	if l.Kernel != "named-test" {
		t.Errorf("kernel name = %q, want named-test", l.Kernel)
	}
	if l.ID != 0 || l.Grid != grid || l.BlockDim != blockDim || len(l.SMs) != sms {
		t.Errorf("launch = id %d grid %d blockDim %d SMs %d", l.ID, l.Grid, l.BlockDim, len(l.SMs))
	}
	if l.End.Before(l.Start) {
		t.Error("launch end before start")
	}

	var blocks, phasesRun, lanes int64
	for sm, s := range l.SMs {
		if s.SM != sm {
			t.Errorf("slot %d holds SM %d's span", sm, s.SM)
		}
		if s.End.Before(s.Start) {
			t.Errorf("SM %d span end before start", sm)
		}
		if s.Start.Before(l.Start) || s.End.After(l.End) {
			t.Errorf("SM %d span outside the launch's wall span", sm)
		}
		blocks += s.Blocks
		phasesRun += s.Phases
		lanes += s.Lanes
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
	rec := telemetry.NewRecorder()
	d.Prof = rec
	d.LaunchKernel(context.Background(), 3, 16, PhaseFunc{Phases: 1, F: func(int, *Thread) {}})
	if got := len(rec.Launches()[0].SMs); got != 3 {
		t.Errorf("SM spans = %d, want 3 (clamped to grid)", got)
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
