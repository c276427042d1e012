package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/partition"
)

// planOf partitions g into k parts and builds the shard plan.
func planOf(t *testing.T, g *graph.CSR, k int) (*Plan, []uint32) {
	t.Helper()
	popt := partition.DefaultOptions(k)
	popt.Workers = 1
	pres, err := partition.Partition(g, popt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(g, pres.Parts, k)
	if err != nil {
		t.Fatal(err)
	}
	return plan, pres.Parts
}

func TestRemapRoundTrip(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(1200, 6, 3))
	plan, parts := planOf(t, g, 4)

	// local → global → local is the identity on every shard.
	for _, sh := range plan.Shards {
		for l, gid := range sh.GlobalID {
			back, ok := localOf(sh, gid)
			if !ok || back != graph.Vertex(l) {
				t.Fatalf("shard %d: local %d → global %d → local %d (ok=%v)",
					sh.Index, l, gid, back, ok)
			}
		}
	}

	// Every global vertex is owned by exactly the shard the partition says,
	// at a local id below Owned.
	ownedCount := 0
	for v := 0; v < g.NumVertices(); v++ {
		sh := plan.Shards[parts[v]]
		l, ok := localOf(sh, graph.Vertex(v))
		if !ok || int(l) >= sh.Owned {
			t.Fatalf("vertex %d not owned by its shard %d (local %d, owned %d)",
				v, parts[v], l, sh.Owned)
		}
	}
	for _, sh := range plan.Shards {
		ownedCount += sh.Owned
	}
	if ownedCount != g.NumVertices() {
		t.Fatalf("owned counts sum to %d, want %d", ownedCount, g.NumVertices())
	}
}

func TestGhostDedupAndProvenance(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(800, 5, 7))
	plan, parts := planOf(t, g, 3)

	for _, sh := range plan.Shards {
		seen := map[graph.Vertex]bool{}
		for i, gh := range sh.Ghosts {
			if int(gh.Local) != sh.Owned+i {
				t.Fatalf("shard %d ghost %d at local %d, want %d", sh.Index, i, gh.Local, sh.Owned+i)
			}
			gid := sh.GlobalID[gh.Local]
			if seen[gid] {
				t.Fatalf("shard %d: ghost for global %d duplicated", sh.Index, gid)
			}
			seen[gid] = true
			if gh.Owner == sh.Index {
				t.Fatalf("shard %d ghosts its own vertex %d", sh.Index, gid)
			}
			if int(parts[gid]) != gh.Owner {
				t.Fatalf("ghost %d claims owner %d, partition says %d", gid, gh.Owner, parts[gid])
			}
			owner := plan.Shards[gh.Owner]
			if owner.GlobalID[gh.OwnerLocal] != gid {
				t.Fatalf("ghost %d: OwnerLocal %d maps to global %d", gid, gh.OwnerLocal, owner.GlobalID[gh.OwnerLocal])
			}
		}
	}
}

func TestLocalCSRsValidAndConserveArcs(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(1000, 6, 11))
	plan, _ := planOf(t, g, 4)

	var ownedArcs int64
	var cut int64
	for _, sh := range plan.Shards {
		if err := sh.Local.Validate(); err != nil {
			t.Fatalf("shard %d local CSR invalid: %v", sh.Index, err)
		}
		// Owned rows carry the vertex's full global degree.
		for l := 0; l < sh.Owned; l++ {
			if sh.Local.Degree(graph.Vertex(l)) != g.Degree(sh.GlobalID[l]) {
				t.Fatalf("shard %d vertex %d degree %d, global degree %d",
					sh.Index, l, sh.Local.Degree(graph.Vertex(l)), g.Degree(sh.GlobalID[l]))
			}
			ownedArcs += int64(sh.Local.Degree(graph.Vertex(l)))
		}
		cut += sh.CutArcs
	}
	if ownedArcs != g.NumArcs() {
		t.Fatalf("owned rows hold %d arcs, graph has %d", ownedArcs, g.NumArcs())
	}
	if cut != plan.CutArcs {
		t.Fatalf("per-shard cut arcs sum %d != plan total %d", cut, plan.CutArcs)
	}
	// Each cut undirected edge contributes one cut arc on each side.
	if plan.CutArcs%2 != 0 {
		t.Fatalf("total cut arcs %d is odd", plan.CutArcs)
	}
}

func TestExchangePropagatesChangedLabels(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(600, 6, 5))
	plan, _ := planOf(t, g, 2)
	if len(plan.Shards[0].Ghosts) == 0 {
		t.Fatal("test graph produced no ghosts; pick a denser graph")
	}

	// Labels start as global ids everywhere, so the first exchange is a
	// no-op: ghost copies already match their owners.
	labels := make([][]uint32, len(plan.Shards))
	for s, sh := range plan.Shards {
		labels[s] = make([]uint32, len(sh.GlobalID))
		for l, gid := range sh.GlobalID {
			labels[s][l] = gid
		}
	}
	if st := plan.Exchange(labels, nil); st.Updated != 0 {
		t.Fatalf("no-op exchange updated %d ghosts", st.Updated)
	}

	// Change one owned boundary vertex's label: exactly the shards ghosting
	// it observe the update, and their wake callbacks fire.
	gh := plan.Shards[0].Ghosts[0]
	owner := plan.Shards[gh.Owner]
	labels[gh.Owner][gh.OwnerLocal] = 99999
	woken := map[int][]graph.Vertex{}
	st := plan.Exchange(labels, func(s int, ghost graph.Vertex) {
		woken[s] = append(woken[s], ghost)
	})
	if st.Updated == 0 {
		t.Fatal("exchange after a label change updated nothing")
	}
	if labels[0][gh.Local] != 99999 {
		t.Fatalf("ghost copy = %d, want 99999", labels[0][gh.Local])
	}
	if len(woken[0]) == 0 {
		t.Error("receiving shard 0 saw no wake callback")
	}
	// A second exchange is quiescent again.
	if st := plan.Exchange(labels, nil); st.Updated != 0 {
		t.Fatalf("second exchange updated %d ghosts", st.Updated)
	}
	_ = owner
}

func TestZeroBoundaryExchange(t *testing.T) {
	// Two disconnected cliques assigned to separate shards: no ghosts, no
	// halo traffic.
	var edges []graph.Edge
	for side := 0; side < 2; side++ {
		base := graph.Vertex(8 * side)
		for i := graph.Vertex(0); i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j, W: 1})
			}
		}
	}
	g, err := graph.FromEdges(edges, 16, graph.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]uint32, 16)
	for v := 8; v < 16; v++ {
		parts[v] = 1
	}
	plan, err := Build(g, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range plan.Shards {
		if len(sh.Ghosts) != 0 || sh.CutArcs != 0 {
			t.Fatalf("shard %d: %d ghosts, %d cut arcs, want none", sh.Index, len(sh.Ghosts), sh.CutArcs)
		}
		if len(sh.GlobalID) != sh.Owned {
			t.Fatalf("shard %d has ghost rows in a disconnected split", sh.Index)
		}
		if err := sh.Local.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	labels := [][]uint32{make([]uint32, 8), make([]uint32, 8)}
	st := plan.Exchange(labels, func(int, graph.Vertex) {
		t.Error("wake fired with zero boundary edges")
	})
	if st.Updated != 0 || plan.CutArcs != 0 {
		t.Fatalf("zero-boundary exchange: updated=%d cut=%d", st.Updated, plan.CutArcs)
	}
}

func TestGatherReassemblesOwners(t *testing.T) {
	g := gen.Road(gen.DefaultRoad(500, 2))
	plan, _ := planOf(t, g, 3)
	labels := make([][]uint32, len(plan.Shards))
	for s, sh := range plan.Shards {
		labels[s] = make([]uint32, len(sh.GlobalID))
		for l := range labels[s] {
			// Owners hold global id + 1; ghosts hold junk that Gather must ignore.
			if l < sh.Owned {
				labels[s][l] = sh.GlobalID[l] + 1
			} else {
				labels[s][l] = 7777777
			}
		}
	}
	out := plan.Gather(labels)
	for v, l := range out {
		if l != uint32(v)+1 {
			t.Fatalf("gathered[%d] = %d, want %d", v, l, v+1)
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	g := gen.Cycle(10)
	if _, err := Build(g, make([]uint32, 5), 2); err == nil {
		t.Error("accepted short parts array")
	}
	if _, err := Build(g, make([]uint32, 10), 0); err == nil {
		t.Error("accepted k=0")
	}
	bad := make([]uint32, 10)
	bad[3] = 9
	if _, err := Build(g, bad, 2); err == nil {
		t.Error("accepted out-of-range part id")
	}
}

func TestSingleShardIsWholeGraph(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(300, 5, 9))
	plan, err := Build(g, make([]uint32, g.NumVertices()), 1)
	if err != nil {
		t.Fatal(err)
	}
	sh := plan.Shards[0]
	if sh.Owned != g.NumVertices() || len(sh.Ghosts) != 0 {
		t.Fatalf("owned=%d ghosts=%d", sh.Owned, len(sh.Ghosts))
	}
	// With everything owned in ascending order, the local CSR is the graph
	// itself, row for row.
	for v := 0; v < g.NumVertices(); v++ {
		if sh.GlobalID[v] != graph.Vertex(v) {
			t.Fatalf("identity remap broken at %d", v)
		}
		if sh.Local.Degree(graph.Vertex(v)) != g.Degree(graph.Vertex(v)) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
	if sh.Local.NumArcs() != g.NumArcs() {
		t.Fatalf("arcs %d != %d", sh.Local.NumArcs(), g.NumArcs())
	}
}

// referenceShard builds shard s the direct way: number owned vertices and
// then ghosts in ascending global order, remap every arc (and the reverse
// of every cut arc) through a map, and let the graph builder sort the rows.
func referenceShard(t *testing.T, g *graph.CSR, parts []uint32, s int) *Shard {
	t.Helper()
	local := map[graph.Vertex]graph.Vertex{}
	ownerLocal := map[graph.Vertex]graph.Vertex{}
	rank := map[uint32]graph.Vertex{}
	ref := &Shard{Index: s}
	for v, p := range parts {
		ownerLocal[graph.Vertex(v)] = rank[p]
		rank[p]++
		if int(p) == s {
			local[graph.Vertex(v)] = graph.Vertex(len(ref.GlobalID))
			ref.GlobalID = append(ref.GlobalID, graph.Vertex(v))
		}
	}
	ref.Owned = len(ref.GlobalID)
	var ghosts []graph.Vertex
	for _, v := range ref.GlobalID[:ref.Owned] {
		ts, _ := g.Neighbors(v)
		for _, u := range ts {
			if int(parts[u]) != s && !slices.Contains(ghosts, u) {
				ghosts = append(ghosts, u)
			}
		}
	}
	slices.Sort(ghosts)
	for _, u := range ghosts {
		l := graph.Vertex(len(ref.GlobalID))
		local[u] = l
		ref.GlobalID = append(ref.GlobalID, u)
		ref.Ghosts = append(ref.Ghosts, Ghost{Local: l, Owner: int(parts[u]), OwnerLocal: ownerLocal[u]})
	}
	var arcs []graph.Edge
	for li, v := range ref.GlobalID[:ref.Owned] {
		ts, ws := g.Neighbors(v)
		for i, u := range ts {
			arcs = append(arcs, graph.Edge{U: graph.Vertex(li), V: local[u], W: ws[i]})
			if int(parts[u]) != s {
				arcs = append(arcs, graph.Edge{U: local[u], V: graph.Vertex(li), W: ws[i]})
				ref.CutArcs++
			}
		}
	}
	csr, err := graph.FromEdges(arcs, len(ref.GlobalID), graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref.Local = csr
	return ref
}

func TestBuildMatchesReference(t *testing.T) {
	// Two workers, so k = 3 and 5 lay shards out on a pool smaller than k
	// and every worker reuses its ghost scratch across shards (under -race
	// in make check).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	social, _ := gen.Social(gen.DefaultSocial(800, 8, 5))
	// A hand-built graph with a self-loop, which is stored once and never
	// crosses a shard boundary.
	loopy, err := graph.FromEdges([]graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 2, W: 5}, {U: 2, V: 3, W: 1},
		{U: 3, V: 4, W: 3}, {U: 4, V: 5, W: 1}, {U: 5, V: 0, W: 4}, {U: 1, V: 4, W: 2},
	}, 6, graph.BuildOptions{Symmetrize: true, SumDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.CSR
	}{
		{"road", gen.Road(gen.DefaultRoad(1500, 4))},
		{"web", gen.Web(gen.DefaultWeb(1200, 6, 3))},
		{"social", social},
		{"self-loop", loopy},
	}
	for _, tc := range graphs {
		for _, k := range []int{1, 2, 3, 5} {
			rng := rand.New(rand.NewSource(int64(k)))
			random := make([]uint32, tc.g.NumVertices())
			for v := range random {
				random[v] = uint32(rng.Intn(k))
			}
			popt := partition.DefaultOptions(k)
			pres, err := partition.Partition(tc.g, popt)
			if err != nil {
				t.Fatal(err)
			}
			for _, split := range []struct {
				name  string
				parts []uint32
			}{{"random", random}, {"lpa", pres.Parts}} {
				plan, err := Build(tc.g, split.parts, k)
				if err != nil {
					t.Fatal(err)
				}
				var cut int64
				for s, sh := range plan.Shards {
					ref := referenceShard(t, tc.g, split.parts, s)
					where := fmt.Sprintf("%s k=%d %s shard %d", tc.name, k, split.name, s)
					if sh.Index != s || sh.Owned != ref.Owned || sh.CutArcs != ref.CutArcs {
						t.Fatalf("%s: index %d owned %d cut %d, reference %d/%d/%d",
							where, sh.Index, sh.Owned, sh.CutArcs, s, ref.Owned, ref.CutArcs)
					}
					if !slices.Equal(sh.GlobalID, ref.GlobalID) || !slices.Equal(sh.Ghosts, ref.Ghosts) {
						t.Fatalf("%s: GlobalID or Ghosts differ from the reference", where)
					}
					if !slices.Equal(sh.Local.Offsets, ref.Local.Offsets) ||
						!slices.Equal(sh.Local.Targets, ref.Local.Targets) ||
						!slices.Equal(sh.Local.Weights, ref.Local.Weights) {
						t.Fatalf("%s: local CSR differs from the reference", where)
					}
					cut += ref.CutArcs
				}
				if plan.CutArcs != cut {
					t.Fatalf("%s k=%d %s: plan cut %d, reference %d", tc.name, k, split.name, plan.CutArcs, cut)
				}
			}
		}
	}
}

// BenchmarkShardBuild builds the two-shard plan of the benchmark's 65k
// social graph under the partition the sharded backend computes for it.
func BenchmarkShardBuild(b *testing.B) {
	g, _ := gen.Social(gen.DefaultSocial(65536, 32, 101))
	popt := partition.DefaultOptions(2)
	popt.Imbalance = 0.1
	popt.Restarts = 4
	pres, err := partition.Partition(g, popt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, pres.Parts, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// localOf maps a global vertex id to sh's local id, and reports whether the
// vertex appears in the shard at all (owned or ghost). Both halves of
// GlobalID ascend, so it is two binary searches.
func localOf(sh *Shard, global graph.Vertex) (graph.Vertex, bool) {
	if i, ok := slices.BinarySearch(sh.GlobalID[:sh.Owned], global); ok {
		return graph.Vertex(i), true
	}
	i, ok := slices.BinarySearch(sh.GlobalID[sh.Owned:], global)
	return graph.Vertex(sh.Owned + i), ok
}
