package simt

import (
	"context"
	"sync/atomic"
	"testing"

	"nulpa/internal/telemetry"
)

func TestLaunchVectorAdd(t *testing.T) {
	d := NewDevice(4)
	n := 1000
	a := make([]float32, n)
	b := make([]float32, n)
	c := make([]float32, n)
	for i := 0; i < n; i++ {
		a[i], b[i] = float32(i), float32(2*i)
	}
	d.LaunchKernel1D(context.Background(), n, 128, PhaseFunc{Phases: 1, F: func(p int, th *Thread) {
		if i := th.Block*th.BlockDim + th.Lane; i < n {
			c[i] = a[i] + b[i]
		}
	}})
	for i := 0; i < n; i++ {
		if c[i] != float32(3*i) {
			t.Fatalf("c[%d] = %g, want %g", i, c[i], float32(3*i))
		}
	}
}

func TestLaunchZeroIsNoop(t *testing.T) {
	d := NewDevice(2)
	called := false
	d.LaunchKernel(context.Background(), 0, 32, PhaseFunc{Phases: 1, F: func(int, *Thread) { called = true }})
	d.LaunchKernel(context.Background(), 4, 0, PhaseFunc{Phases: 1, F: func(int, *Thread) { called = true }})
	d.LaunchKernel1D(context.Background(), 0, 32, PhaseFunc{Phases: 1, F: func(int, *Thread) { called = true }})
	if called {
		t.Error("kernel ran with an empty launch")
	}
}

// TestLockstepSwap is the heart of the package: two lanes in one block that
// read each other's cell in phase 0 and write it back in phase 1 must BOTH
// observe the other's pre-phase value — producing a swap, exactly the
// community-swap mechanism of the paper (§4.1).
func TestLockstepSwap(t *testing.T) {
	d := NewDevice(1)
	vals := []uint32{100, 200}
	read := make([]uint32, 2)
	d.LaunchKernel(context.Background(), 1, 2, PhaseFunc{Phases: 2, F: func(p int, th *Thread) {
		i := th.Lane
		partner := 1 - i
		switch p {
		case 0:
			read[i] = vals[partner]
		case 1:
			vals[i] = read[i]
		}
	}})
	if vals[0] != 200 || vals[1] != 100 {
		t.Fatalf("lockstep swap failed: vals = %v, want [200 100]", vals)
	}
}

// TestLockstepSwapWholeBlock checks the same property across warp
// boundaries: phase boundaries synchronize the entire block.
func TestLockstepSwapWholeBlock(t *testing.T) {
	d := NewDevice(2)
	n := 128 // 4 warps
	vals := make([]uint32, n)
	read := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	d.LaunchKernel(context.Background(), 1, n, PhaseFunc{Phases: 2, F: func(p int, th *Thread) {
		i := th.Lane
		partner := n - 1 - i
		switch p {
		case 0:
			read[i] = vals[partner]
		case 1:
			vals[i] = read[i]
		}
	}})
	for i := range vals {
		if vals[i] != uint32(n-1-i) {
			t.Fatalf("vals[%d] = %d, want %d (block-wide lockstep broken)", i, vals[i], n-1-i)
		}
	}
}

func TestBlockToSMAssignment(t *testing.T) {
	d := NewDevice(4)
	grid := 37
	sm := make([]int32, grid)
	d.LaunchKernel(context.Background(), grid, 1, PhaseFunc{Phases: 1, F: func(p int, th *Thread) {
		sm[th.Block] = int32(th.SM)
	}})
	for b := 0; b < grid; b++ {
		if int(sm[b]) != b%4 {
			t.Errorf("block %d ran on SM %d, want %d", b, sm[b], b%4)
		}
	}
}

// TestBlockPhasesRunBackToBackPerSM pins the ordering per-SM kernel state
// relies on: each SM runs its blocks in block order and every phase of a
// block, lane 0 through the last, before it starts its next block.
func TestBlockPhasesRunBackToBackPerSM(t *testing.T) {
	const sms, grid, blockDim, phases = 3, 20, 4, 3
	d := NewDevice(sms)
	logs := make([][][3]int, sms) // per SM: (block, phase, lane) in run order
	d.LaunchKernel(context.Background(), grid, blockDim, PhaseFunc{Phases: phases, F: func(p int, th *Thread) {
		logs[th.SM] = append(logs[th.SM], [3]int{th.Block, p, th.Lane})
	}})
	for sm, log := range logs {
		var want [][3]int
		for b := sm; b < grid; b += sms {
			for p := 0; p < phases; p++ {
				for lane := 0; lane < blockDim; lane++ {
					want = append(want, [3]int{b, p, lane})
				}
			}
		}
		if len(log) != len(want) {
			t.Fatalf("SM %d ran %d lane-phases, want %d", sm, len(log), len(want))
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("SM %d step %d ran (block, phase, lane) %v, want %v", sm, i, log[i], want[i])
			}
		}
	}
}

func TestSharedMemoryBlockSum(t *testing.T) {
	d := NewDevice(4)
	grid, blockDim := 8, 64
	out := make([]uint64, grid)
	k := SharedPhaseFunc{
		Words: 1,
		PhaseFunc: PhaseFunc{Phases: 2, F: func(p int, th *Thread) {
			switch p {
			case 0:
				th.Shared[0] += uint64(th.Lane)
			case 1:
				if th.Lane == 0 {
					out[th.Block] = th.Shared[0]
				}
			}
		}},
	}
	d.LaunchKernel(context.Background(), grid, blockDim, k)
	want := uint64(blockDim * (blockDim - 1) / 2)
	for b := 0; b < grid; b++ {
		if out[b] != want {
			t.Errorf("block %d shared sum = %d, want %d", b, out[b], want)
		}
	}
}

// TestSharedMemoryZeroedPerBlock ensures a block never sees a previous
// block's shared memory contents.
func TestSharedMemoryZeroedPerBlock(t *testing.T) {
	d := NewDevice(1) // one SM runs all blocks back to back, reusing the arena
	grid := 16
	var dirty atomic.Int32
	k := SharedPhaseFunc{
		Words: 4,
		PhaseFunc: PhaseFunc{Phases: 2, F: func(p int, th *Thread) {
			switch p {
			case 0:
				if th.Lane == 0 {
					for _, w := range th.Shared {
						if w != 0 {
							dirty.Add(1)
						}
					}
				}
			case 1:
				th.Shared[th.Lane%4] = 0xDEAD
			}
		}},
	}
	d.LaunchKernel(context.Background(), grid, 8, k)
	if dirty.Load() != 0 {
		t.Errorf("%d blocks observed dirty shared memory", dirty.Load())
	}
}

func TestThreadCoordinates(t *testing.T) {
	d := NewDevice(3)
	grid, blockDim := 5, 96
	seen := make([]int32, grid*blockDim)
	d.LaunchKernel(context.Background(), grid, blockDim, PhaseFunc{Phases: 1, F: func(p int, th *Thread) {
		if th.BlockDim != blockDim {
			t.Errorf("bad block dim %d", th.BlockDim)
		}
		atomic.AddInt32(&seen[th.Block*th.BlockDim+th.Lane], 1)
	}})
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("thread %d ran %d times, want 1", i, s)
		}
	}
}

func TestDeviceStats(t *testing.T) {
	d := NewDevice(2)
	rec := telemetry.NewRecorder()
	d.Prof = rec
	d.LaunchKernel(context.Background(), 6, 32, PhaseFunc{Phases: 3, F: func(int, *Thread) {}})
	if d.KernelsRun.Load() != 1 {
		t.Errorf("KernelsRun = %d", d.KernelsRun.Load())
	}
	s := rec.KernelSummaries()[0]
	if s.Blocks != 6 {
		t.Errorf("blocks = %d", s.Blocks)
	}
	if s.Phases != 18 {
		t.Errorf("phases = %d", s.Phases)
	}
	if s.Lanes != 6*32*3 {
		t.Errorf("lanes = %d", s.Lanes)
	}
}

func TestMemoryBudget(t *testing.T) {
	d := NewDevice(1)
	d.MemBudget = 1000
	if err := d.Alloc(600); err != nil {
		t.Fatalf("first alloc: %v", err)
	}
	if err := d.Alloc(600); err == nil {
		t.Fatal("over-budget alloc succeeded")
	}
	d.Free(600)
	if err := d.Alloc(900); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	if d.MemUsed() != 900 {
		t.Errorf("MemUsed = %d, want 900", d.MemUsed())
	}
	if err := d.Alloc(-5); err == nil {
		t.Error("negative alloc accepted")
	}
}

func TestMemoryUnlimitedByDefault(t *testing.T) {
	d := NewDevice(1)
	if err := d.Alloc(1 << 40); err != nil {
		t.Fatalf("unlimited device refused allocation: %v", err)
	}
}

func TestNewDeviceDefaults(t *testing.T) {
	d := NewDevice(0)
	if d.NumSMs < 1 {
		t.Errorf("NumSMs = %d", d.NumSMs)
	}
}

// PhaseFunc adapts a per-lane function to a multi-phase Kernel: its
// BlockPhase calls F for every lane of the block, in lane order.
type PhaseFunc struct {
	Phases int
	F      func(p int, t *Thread)
}

// NumPhases implements Kernel.
func (k PhaseFunc) NumPhases() int { return k.Phases }

// BlockPhase implements Kernel.
func (k PhaseFunc) BlockPhase(p int, t *Thread) int {
	for lane := 0; lane < t.BlockDim; lane++ {
		t.Lane = lane
		k.F(p, t)
	}
	return t.BlockDim
}

// SharedPhaseFunc adapts a function to a SharedKernel.
type SharedPhaseFunc struct {
	PhaseFunc
	Words int
}

// SharedUint64s implements SharedKernel.
func (k SharedPhaseFunc) SharedUint64s() int { return k.Words }
