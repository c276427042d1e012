package nulpa

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"

	"nulpa/internal/faults"
	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/quality"
	"nulpa/internal/simt"
	"nulpa/internal/telemetry"
)

// shardedOpts returns a deterministic sharded configuration: one SM per
// device, fixed partition seed via the internal partitioner.
func shardedOpts(shards int) Options {
	opt := DefaultShardedOptions()
	opt.Shards = shards
	opt.Workers = 1
	return opt
}

func TestShardedSingleShardMatchesSingleDevice(t *testing.T) {
	// With one shard the local CSR is the whole graph in identity order, so
	// the sharded backend must reproduce the single-device labels exactly.
	g := gen.Web(gen.DefaultWeb(400, 6, 5))

	sopt := DefaultOptions()
	sopt.Device = simt.NewDevice(1)
	single, err := Detect(g, sopt)
	if err != nil {
		t.Fatal(err)
	}

	opt := shardedOpts(1)
	opt.PickLessEvery = sopt.PickLessEvery // align ρ: the claim is about sharding mechanics
	res, err := Detect(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(single.Labels, res.Labels) {
		t.Fatal("shards=1 labels differ from the single-device backend")
	}
	if halo := haloLabels(res); halo != 0 || res.CutArcs != 0 {
		t.Errorf("shards=1 reported halo traffic: halo=%d cut=%d", halo, res.CutArcs)
	}
	if len(res.ShardStats) != 1 || res.ShardStats[0].Owned != g.NumVertices() {
		t.Errorf("shard stats: %+v", res.ShardStats)
	}
}

func TestShardedDeterministicAtFixedSeed(t *testing.T) {
	g, _ := gen.Social(gen.DefaultSocial(512, 8, 13))
	a, err := Detect(g, shardedOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Detect(g, shardedOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Labels, b.Labels) {
		t.Fatal("same configuration, different labels")
	}
	if ha, hb := haloLabels(a), haloLabels(b); ha != hb {
		t.Fatalf("halo traffic differs between identical runs: %d vs %d", ha, hb)
	}
}

func TestShardedDeterministic(t *testing.T) {
	// Workers 0 on two CPUs: one SM per device and the partitioner's
	// restarts on two goroutines. Partition returns the same parts at any
	// worker count, so repeated runs must agree bit for bit.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g, _ := gen.Social(gen.DefaultSocial(8192, 16, 29))
	opt := DefaultShardedOptions()
	opt.Shards = 2
	opt.Workers = 0
	var first []uint32
	for run := 0; run < 3; run++ {
		res, err := Detect(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = res.Labels
		} else if !slices.Equal(first, res.Labels) {
			t.Fatalf("run %d labels differ from run 0", run)
		}
	}
}

func TestShardedLabelsPinned(t *testing.T) {
	// The K = 2 labels on this graph, digested at the commit before the
	// partitioner's active set and the concurrent shard set-up: a set-up
	// change must leave every label where it was. Workers 1 is one SM per
	// device and one partitioner goroutine; Workers 0 at GOMAXPROCS 2 is
	// one SM per device and two partitioner and shard-build goroutines.
	const want = 0xf99121439b9ed59e
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g, _ := gen.Social(gen.DefaultSocial(8192, 16, 29))
	for _, workers := range []int{1, 0} {
		opt := DefaultShardedOptions()
		opt.Shards = 2
		opt.Workers = workers
		res, err := Detect(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, c := range res.Labels {
			h.Write(binary.LittleEndian.AppendUint32(nil, c))
		}
		if got := h.Sum64(); got != want {
			t.Errorf("Workers %d: label digest %#016x, want %#016x", workers, got, uint64(want))
		}
	}
}

func TestShardedCommunityCensus(t *testing.T) {
	// ShardStats.Communities must equal the distinct labels among each
	// shard's owned vertices, counted here from the gathered labels.
	g, _ := gen.Social(gen.DefaultSocial(600, 10, 7))
	const k = 3
	parts := make([]uint32, g.NumVertices())
	for v := range parts {
		parts[v] = uint32(v % k)
	}
	opt := shardedOpts(k)
	opt.ShardParts = parts
	res, err := Detect(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]map[uint32]bool, k)
	for s := range want {
		want[s] = map[uint32]bool{}
	}
	for v, c := range res.Labels {
		want[parts[v]][c] = true
	}
	for s, ss := range res.ShardStats {
		if ss.Communities != len(want[s]) {
			t.Errorf("shard %d: Communities = %d, distinct owned labels = %d", s, ss.Communities, len(want[s]))
		}
	}
}

func TestShardedHaloTrafficAndQuality(t *testing.T) {
	g, planted := gen.Social(gen.DefaultSocial(600, 10, 7))
	res, err := Detect(g, shardedOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != g.NumVertices() {
		t.Fatalf("labels length %d", len(res.Labels))
	}
	// A connected community graph split four ways must exchange labels.
	if haloLabels(res) == 0 {
		t.Error("no halo labels exchanged on a connected graph with 4 shards")
	}
	if res.CutArcs == 0 {
		t.Error("no cut arcs reported")
	}
	var ghostTotal int64
	for _, ss := range res.ShardStats {
		ghostTotal += int64(ss.Ghosts)
	}
	if ghostTotal == 0 {
		t.Error("no ghosts in any shard")
	}
	// Communities must still merge across shard boundaries: modularity well
	// above the singleton floor.
	if q := quality.Modularity(g, res.Labels); q < 0.2 {
		t.Errorf("sharded modularity %.3f too low", q)
	}
	_ = planted
}

func TestShardedZeroBoundary(t *testing.T) {
	// Two disconnected cliques, explicitly assigned one per shard: the BSP
	// loop must run with zero halo traffic and still converge each side.
	var edges []graph.Edge
	for side := 0; side < 2; side++ {
		base := graph.Vertex(10 * side)
		for i := graph.Vertex(0); i < 10; i++ {
			for j := i + 1; j < 10; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j, W: 1})
			}
		}
	}
	g, err := graph.FromEdges(edges, 20, graph.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]uint32, 20)
	for v := 10; v < 20; v++ {
		parts[v] = 1
	}
	opt := shardedOpts(2)
	opt.ShardParts = parts
	res, err := Detect(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if halo := haloLabels(res); halo != 0 || res.CutArcs != 0 {
		t.Errorf("disconnected shards exchanged labels: halo=%d cut=%d", halo, res.CutArcs)
	}
	// Each clique collapses to one community; the two communities differ.
	for v := 1; v < 10; v++ {
		if res.Labels[v] != res.Labels[0] {
			t.Fatalf("clique 0 not uniform: labels[%d]=%d labels[0]=%d", v, res.Labels[v], res.Labels[0])
		}
	}
	for v := 11; v < 20; v++ {
		if res.Labels[v] != res.Labels[10] {
			t.Fatalf("clique 1 not uniform at vertex %d", v)
		}
	}
	if res.Labels[0] == res.Labels[10] {
		t.Error("disconnected cliques share a community")
	}
}

func TestShardedEdgeCases(t *testing.T) {
	// Empty graph.
	empty := gen.MatchedPairs(0)
	res, err := Detect(empty, shardedOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 0 || !res.Converged {
		t.Errorf("empty graph: labels=%v converged=%v", res.Labels, res.Converged)
	}

	// More shards than vertices: clamped, still valid.
	cyc := gen.Cycle(10)
	res, err = Detect(cyc, shardedOpts(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 10 {
		t.Fatalf("labels length %d", len(res.Labels))
	}

	// Shards covering isolated vertices.
	pairs := gen.MatchedPairs(6) // 12 vertices in 6 disjoint edges
	res, err = Detect(pairs, shardedOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != pairs.NumVertices() {
		t.Fatalf("labels length %d", len(res.Labels))
	}
}

func TestShardedOptionValidation(t *testing.T) {
	g := gen.Cycle(20)
	opt := shardedOpts(2)
	opt.CrossCheckEvery = 2
	if _, err := Detect(g, opt); err == nil {
		t.Error("accepted Cross-Check on the sharded backend")
	}
	opt = shardedOpts(-1)
	if _, err := Detect(g, opt); err == nil {
		t.Error("accepted negative shard count")
	}
	// Shards = 0 runs on one device instead of failing.
	opt = shardedOpts(0)
	if _, err := Detect(g, opt); err != nil {
		t.Errorf("Shards=0 should run on one device, got %v", err)
	}

	// On one shard labels are local ids, so Cross-Check runs there, and the
	// run is the single-device one: same labels as nulpa at 1 SM.
	web := gen.Web(gen.DefaultWeb(400, 6, 5))
	single := DefaultOptions()
	single.CrossCheckEvery = 2
	single.Device = simt.NewDevice(1)
	want, err := Detect(web, single)
	if err != nil {
		t.Fatal(err)
	}
	wantReverts := telemetry.Sum(want.Trace).Reverts
	if wantReverts == 0 {
		t.Fatal("Cross-Check reverted nothing: the comparison is vacuous")
	}
	opt = shardedOpts(1)
	opt.CrossCheckEvery = single.CrossCheckEvery
	opt.PickLessEvery = single.PickLessEvery
	got, err := Detect(web, opt)
	if err != nil {
		t.Fatalf("Cross-Check with Shards=1 rejected: %v", err)
	}
	if gotReverts := telemetry.Sum(got.Trace).Reverts; !slices.Equal(got.Labels, want.Labels) || gotReverts != wantReverts {
		t.Errorf("Cross-Check with Shards=1: %d reverts (single-device %d), labels equal %v",
			gotReverts, wantReverts, slices.Equal(got.Labels, want.Labels))
	}
	opt.Shards = 2
	if _, err := Detect(web, opt); err == nil {
		t.Error("accepted Cross-Check with Shards=2")
	}
	// A malformed external partition is rejected.
	opt = shardedOpts(2)
	opt.ShardParts = make([]uint32, 5)
	if _, err := Detect(g, opt); err == nil {
		t.Error("accepted ShardParts of the wrong length")
	}
}

func TestShardedSingleShardFaultRollsBackAlone(t *testing.T) {
	// Fault injection on shard 1 only: the faulted shard rolls back and
	// retries by itself while its peers keep their state — no peer may
	// record a rollback, and the run must finish on-device (not degraded).
	g, _ := gen.Social(gen.DefaultSocial(512, 8, 13))
	sawRollback := false
	for seed := int64(1); seed <= 10 && !sawRollback; seed++ {
		opt := shardedOpts(4)
		opt.ShardFaults = []*faults.Injector{
			nil,
			faults.New(faults.Spec{KernelFailRate: 0.2, Seed: seed}),
			nil,
			nil,
		}
		res, err := Detect(g, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Degraded {
			continue // recovery budget exhausted this seed; try the next
		}
		if len(res.Labels) != g.NumVertices() {
			t.Fatalf("seed %d: labels length %d", seed, len(res.Labels))
		}
		for s, ss := range res.ShardStats {
			if s == 1 {
				continue
			}
			if ss.Rollbacks != 0 || ss.Retries != 0 {
				t.Fatalf("seed %d: clean shard %d recorded rollbacks=%d retries=%d",
					seed, s, ss.Rollbacks, ss.Retries)
			}
		}
		if res.ShardStats[1].Rollbacks > 0 {
			sawRollback = true
			if res.Rollbacks != res.ShardStats[1].Rollbacks {
				t.Fatalf("total rollbacks %d != shard 1's %d", res.Rollbacks, res.ShardStats[1].Rollbacks)
			}
		}
	}
	if !sawRollback {
		t.Fatal("no seed produced a recovered shard-1 rollback; raise the fault rate")
	}
}

func TestShardedFaultFallback(t *testing.T) {
	// Every launch on shard 0 fails: recovery exhausts and the run degrades
	// to the direct configuration.
	g := gen.Web(gen.DefaultWeb(300, 6, 9))
	opt := shardedOpts(2)
	opt.ShardFaults = []*faults.Injector{
		faults.New(faults.Spec{KernelFailRate: 1, Seed: 3}),
		nil,
	}
	res, err := Detect(g, opt)
	if err != nil {
		t.Fatalf("fallback should have absorbed the failure, got %v", err)
	}
	if !res.Degraded {
		t.Error("result does not carry Degraded after sharded recovery exhaustion")
	}
	if len(res.Labels) != g.NumVertices() {
		t.Fatalf("labels length %d", len(res.Labels))
	}

	// Below the fallback, the sharded device run gives up with errFaulted.
	if _, err := detectSharded(g, opt); !errors.Is(err, errFaulted) {
		t.Fatalf("device run: err = %v, want errFaulted", err)
	}
}

func TestShardedDeviceBytesSumAndMemReleased(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(500, 6, 3))
	res, err := Detect(g, shardedOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, ss := range res.ShardStats {
		if ss.DeviceBytes <= 0 {
			t.Errorf("shard %d reports no device memory", ss.Shard)
		}
		sum += ss.DeviceBytes
	}
	if sum != res.DeviceBytes {
		t.Fatalf("per-shard bytes sum %d != total %d", sum, res.DeviceBytes)
	}
}

// haloLabels is a run's halo traffic: the changed ghost labels its shards
// received at the barriers.
func haloLabels(res *Result) int64 {
	var n int64
	for _, ss := range res.ShardStats {
		n += ss.HaloLabelsIn
	}
	return n
}
