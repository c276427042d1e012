package nulpa

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
	"nulpa/internal/simt"
	"nulpa/internal/telemetry"
)

// perLaneBlock hides blockKernel's BlockPhase, so a launch falls back to
// calling Phase for every lane; every other kernel extension passes
// through.
type perLaneBlock struct{ k *blockKernel }

func (w perLaneBlock) NumPhases() int                    { return w.k.NumPhases() }
func (w perLaneBlock) Phase(p int, t *simt.Thread)       { w.k.Phase(p, t) }
func (w perLaneBlock) SharedUint64s() int                { return w.k.SharedUint64s() }
func (w perLaneBlock) KernelName() string                { return w.k.KernelName() }
func (w perLaneBlock) GrowTallies(sms int)               { w.k.GrowTallies(sms) }
func (w perLaneBlock) FoldTallies() telemetry.WorkCounts { return w.k.FoldTallies() }

// perLaneThread is perLaneBlock for threadKernel: it hides BlockPhase, so
// the launch calls Phase once per lane.
type perLaneThread struct{ k *threadKernel }

func (w perLaneThread) NumPhases() int                    { return w.k.NumPhases() }
func (w perLaneThread) Phase(p int, t *simt.Thread)       { w.k.Phase(p, t) }
func (w perLaneThread) KernelName() string                { return w.k.KernelName() }
func (w perLaneThread) GrowTallies(sms int)               { w.k.GrowTallies(sms) }
func (w perLaneThread) FoldTallies() telemetry.WorkCounts { return w.k.FoldTallies() }

var (
	_ simt.TallyKernel = perLaneBlock{}
	_ simt.TallyKernel = perLaneThread{}
)

// hubGraph returns a weighted random graph on n vertices whose first hubs
// vertices have degrees spread up to maxHub, so block-kernel degrees fall
// on both sides of every tested BlockDim and strided lanes wrap.
func hubGraph(n, hubs, maxHub int, seed int64) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(0)
	w := func() float32 { return float32(1 + rng.Intn(4)) }
	for h := 0; h < hubs; h++ {
		deg := 1 + rng.Intn(maxHub)
		for e := 0; e < deg; e++ {
			b.AddEdge(graph.Vertex(h), graph.Vertex(rng.Intn(n)), w())
		}
	}
	for v := hubs; v < n; v++ {
		for e := 0; e < 3; e++ {
			b.AddEdge(graph.Vertex(v), graph.Vertex(hubs+rng.Intn(n-hubs)), w())
		}
	}
	g, err := b.Build(n, graph.DefaultBuildOptions())
	if err != nil {
		panic(err)
	}
	return g
}

// diffRun is one side of the differential: a device run at 1 SM, its
// recorder, and the thread and block kernels as launched.
type diffRun struct {
	r             *deviceRun
	rec           *telemetry.Recorder
	thread, block simt.Kernel
}

func newDiffRun(t *testing.T, g *graph.CSR, opt Options, perLane bool) *diffRun {
	t.Helper()
	dev := simt.NewDevice(1)
	rec := telemetry.NewRecorder()
	dev.Prof = rec
	r, err := newDeviceRun(g, opt, dev, runView{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.free)
	d := &diffRun{r: r, rec: rec, thread: r.tk, block: r.bk}
	if perLane {
		d.thread, d.block = perLaneThread{r.tk}, perLaneBlock{r.bk}
	}
	return d
}

// step runs iteration iter's thread and block kernels, returning the
// iteration's deltaN.
func (d *diffRun) step(iter int) int64 {
	st, opt := d.r.st, d.r.opt
	st.pickless = opt.PickLessEvery > 0 && iter%opt.PickLessEvery == 0
	st.deltaN = 0
	st.iterHash = hashtable.StatsSnapshot{}
	d.r.dev.LaunchKernel1D(context.Background(), len(d.r.low), opt.BlockDim, d.thread)
	d.r.dev.LaunchKernel(context.Background(), len(d.r.high), opt.BlockDim, d.block)
	return st.deltaN
}

// TestBlockPhaseMatchesPerLane runs the thread and block kernels through
// BlockPhase and through per-lane Phase on identical runs and requires
// identical labels, processed flags, deltaN, hashtable tallies and
// per-launch work counters after every iteration.
func TestBlockPhaseMatchesPerLane(t *testing.T) {
	g := hubGraph(400, 12, 700, 3)
	if d := g.MaxDegree(); d <= 256 {
		t.Fatalf("max degree %d: no block wraps its strided lanes at BlockDim 256", d)
	}
	type variant struct {
		name string
		set  func(*Options)
	}
	variants := []variant{
		{"default", func(*Options) {}},
		{"no-prune", func(o *Options) { o.DisablePruning = true }},
		{"pickless-every", func(o *Options) { o.PickLessEvery = 1 }},
		{"coalesced", func(o *Options) { o.Coalesced = true }},
		{"float64", func(o *Options) { o.ValueKind = hashtable.Float64 }},
		{"coalesced-float64-no-prune", func(o *Options) {
			o.Coalesced, o.ValueKind, o.DisablePruning = true, hashtable.Float64, true
		}},
	}
	// Every variant runs at each BlockDim with the paper's switch degree,
	// and at BlockDim 32 with every vertex on the block kernel (switch
	// degree 0). The per-lane side costs 6·BlockDim calls per block, so
	// only the default variant pays for switch degree 0 at 256 lanes.
	type launch struct{ bd, sw int }
	for _, v := range variants {
		launches := []launch{{32, 32}, {64, 32}, {256, 32}, {32, 0}}
		if v.name == "default" {
			launches = append(launches, launch{256, 0})
		}
		for _, l := range launches {
			t.Run(fmt.Sprintf("%s/bd%d/sw%d", v.name, l.bd, l.sw), func(t *testing.T) {
				opt := DefaultOptions()
				v.set(&opt)
				opt.BlockDim, opt.SwitchDegree = l.bd, l.sw
				if err := checkOptions(&opt); err != nil {
					t.Fatal(err)
				}
				checkBlockPhaseDiff(t, g, opt, 8)
			})
		}
	}
}

func checkBlockPhaseDiff(t *testing.T, g *graph.CSR, opt Options, iters int) {
	t.Helper()
	blk := newDiffRun(t, g, opt, false)
	lane := newDiffRun(t, g, opt, true)
	if len(blk.r.high) == 0 {
		t.Fatal("no block-kernel vertices: the differential is vacuous")
	}
	if low := len(blk.r.low); opt.SwitchDegree > 0 && (low == 0 || low%opt.BlockDim == 0) {
		t.Fatalf("%d thread-kernel vertices at BlockDim %d: no partial last block", low, opt.BlockDim)
	}
	var moved int64
	for iter := 0; iter < iters; iter++ {
		dBlk, dLane := blk.step(iter), lane.step(iter)
		moved += dBlk
		if dBlk != dLane {
			t.Fatalf("iteration %d: deltaN %d (block-phase) vs %d (per-lane)", iter, dBlk, dLane)
		}
		if !slices.Equal(blk.r.st.labels, lane.r.st.labels) {
			t.Fatalf("iteration %d: labels differ", iter)
		}
		if !slices.Equal(blk.r.st.processed, lane.r.st.processed) {
			t.Fatalf("iteration %d: processed flags differ", iter)
		}
		if b, l := blk.r.st.iterHash, lane.r.st.iterHash; b != l {
			t.Fatalf("iteration %d: hashtable stats %+v (block-phase) vs %+v (per-lane)", iter, b, l)
		}
	}
	if moved == 0 {
		t.Error("no label moved: the differential is vacuous")
	}
	bl, ll := blk.rec.Launches(), lane.rec.Launches()
	if len(bl) != len(ll) {
		t.Fatalf("%d launches (block-phase) vs %d (per-lane)", len(bl), len(ll))
	}
	for i := range bl {
		if bl[i].Kernel != ll[i].Kernel || bl[i].Work != ll[i].Work {
			t.Errorf("launch %d: %s %+v (block-phase) vs %s %+v (per-lane)",
				i, bl[i].Kernel, bl[i].Work, ll[i].Kernel, ll[i].Work)
		}
		// The thread kernel runs one lane per listed vertex and phase, so
		// only the last partial block reports fewer than BlockDim lanes.
		if bl[i].Kernel == blk.r.tk.KernelName() {
			if got, want := launchLanes(bl[i]), int64(2*len(blk.r.low)); got != want {
				t.Errorf("launch %d: thread kernel ran %d lanes, want %d", i, got, want)
			}
		}
	}
}

func launchLanes(l telemetry.Launch) (lanes int64) {
	for _, sm := range l.SMs {
		lanes += sm.Lanes
	}
	return lanes
}

// TestBlockKernelEmptyTableKeepsLabel: a vertex whose only arc is a self
// loop accumulates nothing, so its block's max-reduce finds no candidate
// and the vertex keeps its own label. The running best must start empty
// and take only occupied slots — a zeroed best would read as label 0 with
// weight 0.
func TestBlockKernelEmptyTableKeepsLabel(t *testing.T) {
	opts := graph.BuildOptions{Symmetrize: true, SumDuplicates: true}
	g, err := graph.FromEdges([]graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 2, W: 1}}, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, bd := range []int{1, 32, 256} {
		opt := DefaultOptions()
		opt.SwitchDegree, opt.BlockDim, opt.Device = 0, bd, simt.NewDevice(1)
		if res := detect(t, g, opt); res.Labels[2] != 2 {
			t.Errorf("BlockDim %d: self-loop-only vertex 2 moved to label %d", bd, res.Labels[2])
		}
	}
}
