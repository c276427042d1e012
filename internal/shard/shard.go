// Package shard builds shard-local views of a partitioned CSR graph for
// multi-device execution: each shard gets its own compact CSR holding the
// rows it owns plus ghost rows for boundary neighbours owned by other
// shards, together with the global↔local vertex remap and the ghost
// provenance needed to exchange boundary labels at BSP superstep barriers.
//
// The layout follows the multi-GPU decomposition of Forster's parallel
// Louvain (see PAPERS.md): owned vertices occupy local ids [0, Owned) in
// ascending global order, ghosts occupy [Owned, NumVertices) in ascending
// global order. Ghost rows carry the reverse arcs back to the owned side, so
// each local CSR is a valid symmetric graph and a changed ghost label can
// wake exactly the owned vertices that observe it.
package shard

import (
	"fmt"
	"slices"

	"nulpa/internal/graph"
)

// Ghost records where a ghost row's authoritative copy lives.
type Ghost struct {
	// Local is the ghost's row in the importing shard's local CSR
	// (always >= Owned).
	Local graph.Vertex
	// Owner is the shard that owns the vertex.
	Owner int
	// OwnerLocal is the vertex's local id within the owner shard
	// (always < the owner's Owned count).
	OwnerLocal graph.Vertex
}

// Shard is one device's view of the partitioned graph.
type Shard struct {
	// Index is the shard's position in the plan.
	Index int
	// Local is the shard-local CSR: rows [0, Owned) are owned vertices with
	// their full adjacency remapped to local ids; rows [Owned, n) are ghost
	// rows holding only the reverse arcs into this shard's owned vertices.
	Local *graph.CSR
	// Owned is the number of vertices this shard is authoritative for.
	Owned int
	// GlobalID maps local ids (owned and ghost) back to global vertex ids.
	GlobalID []graph.Vertex
	// Ghosts lists the ghost rows in ascending Local order.
	Ghosts []Ghost
	// CutArcs counts arcs from this shard's owned vertices to ghosts.
	CutArcs int64
}

// NumLocal returns the local CSR's vertex count (owned + ghosts).
func (s *Shard) NumLocal() int { return len(s.GlobalID) }

// LocalOf maps a global vertex id to this shard's local id. The second
// return value reports whether the vertex appears in the shard at all
// (owned or ghost). Both halves of GlobalID ascend, so it is two binary
// searches.
func (s *Shard) LocalOf(global graph.Vertex) (graph.Vertex, bool) {
	if i, ok := slices.BinarySearch(s.GlobalID[:s.Owned], global); ok {
		return graph.Vertex(i), true
	}
	i, ok := slices.BinarySearch(s.GlobalID[s.Owned:], global)
	return graph.Vertex(s.Owned + i), ok
}

// Plan is a complete sharding of one graph.
type Plan struct {
	// Shards holds one view per part, indexed by part id.
	Shards []*Shard
	// N is the global vertex count.
	N int
	// CutArcs is the total number of boundary-crossing arcs (each cut
	// undirected edge counted twice, like graph.CSR arc accounting).
	CutArcs int64
}

// Build constructs the shard plan for g under the given k-way partition
// (parts[v] is vertex v's shard, all values in [0, k)).
func Build(g *graph.CSR, parts []uint32, k int) (*Plan, error) {
	n := g.NumVertices()
	if len(parts) != n {
		return nil, fmt.Errorf("shard: parts length %d, graph has %d vertices", len(parts), n)
	}
	if k < 1 {
		return nil, fmt.Errorf("shard: k = %d, want >= 1", k)
	}
	for v, p := range parts {
		if int(p) >= k {
			return nil, fmt.Errorf("shard: vertex %d assigned to part %d, want < %d", v, p, k)
		}
	}

	// Owned vertices in ascending global order fix each shard's local id
	// space; ownerLocal[v] is v's rank within its owner.
	ownerLocal := make([]graph.Vertex, n)
	ownedBy := make([][]graph.Vertex, k)
	for v := 0; v < n; v++ {
		p := parts[v]
		ownerLocal[v] = graph.Vertex(len(ownedBy[p]))
		ownedBy[p] = append(ownedBy[p], graph.Vertex(v))
	}

	// ghostLocal is the one n-length scratch every shard shares: a
	// vertex's ghost row in the shard being built (its cut-arc count while
	// the ghosts are being found), NoVertex elsewhere. Each shard resets
	// exactly the entries it set, so K shards cost O(n + arcs), not O(K·n).
	ghostLocal := make([]graph.Vertex, n)
	for v := range ghostLocal {
		ghostLocal[v] = graph.NoVertex
	}
	plan := &Plan{Shards: make([]*Shard, k), N: n}
	for s := 0; s < k; s++ {
		sh := buildShard(g, parts, s, ownedBy[s], ownerLocal, ghostLocal)
		plan.Shards[s] = sh
		plan.CutArcs += sh.CutArcs
	}
	return plan, nil
}

// buildShard lays out shard idx's local CSR. Every row comes out sorted
// without a sort: owned local ids rise with global ids and every ghost id
// is above every owned id, so an owned row is its owned neighbours followed
// by its ghost neighbours, each in CSR order; a ghost row receives its
// reverse arcs in ascending owned order.
func buildShard(g *graph.CSR, parts []uint32, idx int, owned []graph.Vertex,
	ownerLocal, ghostLocal []graph.Vertex) *Shard {
	sh := &Shard{Index: idx, Owned: len(owned)}
	part := uint32(idx)

	// Pass 1: discover the ghost set (deduplicated boundary neighbours),
	// counting each ghost's cut arcs in its scratch slot until it has a row.
	// A ghost row holds one reverse arc per cut arc pointing at it, so the
	// local CSR stays symmetric and ghost rows can wake their owned
	// neighbours after a halo update.
	var ghosts []graph.Vertex
	for _, v := range owned {
		ts, _ := g.Neighbors(v)
		for _, u := range ts {
			if parts[u] != part {
				if ghostLocal[u] == graph.NoVertex {
					ghostLocal[u] = 0
					ghosts = append(ghosts, u)
				}
				ghostLocal[u]++
			}
		}
	}
	slices.Sort(ghosts)

	// Pass 2: size every local row (owned rows keep their full degree) and
	// give each ghost its row.
	nl := len(owned) + len(ghosts)
	offsets := make([]int64, nl+1)
	for li, v := range owned {
		offsets[li+1] = offsets[li] + int64(g.Degree(v))
	}
	sh.GlobalID = make([]graph.Vertex, 0, nl)
	sh.GlobalID = append(sh.GlobalID, owned...)
	sh.GlobalID = append(sh.GlobalID, ghosts...)
	sh.Ghosts = make([]Ghost, len(ghosts))
	for i, u := range ghosts {
		l := len(owned) + i
		cut := int64(ghostLocal[u])
		offsets[l+1] = offsets[l] + cut
		sh.CutArcs += cut
		ghostLocal[u] = graph.Vertex(l)
		sh.Ghosts[i] = Ghost{Local: graph.Vertex(l), Owner: int(parts[u]), OwnerLocal: ownerLocal[u]}
	}

	// Pass 3: fill. An owned row takes its owned neighbours from the front
	// and its ghost neighbours from the back, then reverses the ghost tail
	// back into CSR order; ghost rows advance their own cursor.
	targets := make([]graph.Vertex, offsets[nl])
	weights := make([]float32, offsets[nl])
	ghostFill := slices.Clone(offsets[len(owned):nl])
	for li, v := range owned {
		ts, ws := g.Neighbors(v)
		front, back := offsets[li], offsets[li+1]
		for i, u := range ts {
			if parts[u] == part {
				targets[front], weights[front] = ownerLocal[u], ws[i]
				front++
				continue
			}
			lu := ghostLocal[u]
			back--
			targets[back], weights[back] = lu, ws[i]
			gf := &ghostFill[int(lu)-len(owned)]
			targets[*gf], weights[*gf] = graph.Vertex(li), ws[i]
			*gf++
		}
		slices.Reverse(targets[front:offsets[li+1]])
		slices.Reverse(weights[front:offsets[li+1]])
	}
	sh.Local = graph.New(offsets, targets, weights)
	for _, u := range ghosts {
		ghostLocal[u] = graph.NoVertex
	}
	return sh
}

// ExchangeStats reports one halo exchange.
type ExchangeStats struct {
	// Updated is the number of ghost labels that changed this superstep.
	Updated int64
	// PerShard counts updated ghost labels per receiving shard.
	PerShard []int64
}

// Exchange copies changed owner labels into ghost slots: for every ghost in
// every shard, the owner shard's current label is compared against the
// cached ghost copy, and only changed labels are written (the BSP barrier's
// "send only what moved" rule). For each updated ghost, wake — when non-nil —
// is invoked with the receiving shard and the ghost's local id so the caller
// can re-activate the owned vertices that observe it.
//
// labels[s] must be shard s's local label array (length NumLocal). The
// exchange is sequential and deterministic: shards ascending, ghosts in
// local order.
func (p *Plan) Exchange(labels [][]uint32, wake func(shard int, ghost graph.Vertex)) ExchangeStats {
	st := ExchangeStats{PerShard: make([]int64, len(p.Shards))}
	for s, sh := range p.Shards {
		dst := labels[s]
		for _, gh := range sh.Ghosts {
			want := labels[gh.Owner][gh.OwnerLocal]
			if dst[gh.Local] == want {
				continue
			}
			dst[gh.Local] = want
			st.Updated++
			st.PerShard[s]++
			if wake != nil {
				wake(s, gh.Local)
			}
		}
	}
	return st
}

// Gather scatters per-shard owned labels back into one global array:
// out[GlobalID[l]] = labels[s][l] for every owned l of every shard. Ghost
// entries are ignored — owners are authoritative.
func (p *Plan) Gather(labels [][]uint32) []uint32 {
	return p.GatherInto(make([]uint32, p.N), labels)
}

// GatherInto is Gather writing into a caller-owned buffer of length N — the
// allocation-free variant the quality plane uses to gather every superstep.
func (p *Plan) GatherInto(dst []uint32, labels [][]uint32) []uint32 {
	for s, sh := range p.Shards {
		for l := 0; l < sh.Owned; l++ {
			dst[sh.GlobalID[l]] = labels[s][l]
		}
	}
	return dst
}
