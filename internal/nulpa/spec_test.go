package nulpa

import (
	"slices"

	"nulpa/internal/graph"
)

// The sequential specification of ν-LPA: Algorithm 1 with Pick-Less and
// Cross-Check, written as one SM runs it and nothing more — label weights in
// a map, no hashtable, no simulated device. FuzzDetectMatchesSpec holds the
// kernels to it. At one SM the device runs every block to completion in
// block order, so the only concurrency left to model is the thread
// kernel's lockstep: a block's vertices all pick before any of them moves.

// specIter is one iteration of the spec: committed moves, Cross-Check
// reverts and their difference.
type specIter struct{ moves, reverts, deltaN int64 }

// specRun is the spec's answer: the final labels, one record per iteration
// run, and the first vertex whose heaviest neighbouring label was not unique
// (-1 when none was). The kernels break such a tie by hashtable slot order,
// which the spec does not model, so a run with a tie proves nothing.
type specRun struct {
	labels []uint32
	iters  []specIter
	tie    int
}

// spec runs ν-LPA on g under opt's schedule: MaxIterations, Tolerance,
// PickLessEvery, CrossCheckEvery, SwitchDegree, BlockDim and
// DisablePruning. Label weights are summed in float64 when wide is set and
// in float32 otherwise, as the table's value kind does, and in the order
// the kernel visits the neighbours, so a float32 sum absorbs the same small
// weights.
func spec(g *graph.CSR, opt Options, wide bool) specRun {
	n := g.NumVertices()
	run := specRun{labels: make([]uint32, n), tie: -1}
	labels := run.labels
	for i := range labels {
		labels[i] = uint32(i)
	}
	// done[i] is vertex i's processed flag: set when i is processed, cleared
	// when a neighbour moves or a Cross-Check reverts i. A set flag skips i.
	done := make([]bool, n)

	// The degree split: isolated vertices never run, vertices of degree
	// below SwitchDegree go to the thread kernel, the rest to the block
	// kernel.
	var low, high []graph.Vertex
	for i := range n {
		switch d := g.Degree(graph.Vertex(i)); {
		case d == 0:
		case d < opt.SwitchDegree:
			low = append(low, graph.Vertex(i))
		default:
			high = append(high, graph.Vertex(i))
		}
	}

	// claim reports whether vertex i runs this time, and marks it done.
	claim := func(i graph.Vertex) bool {
		if opt.DisablePruning {
			return true
		}
		if done[i] {
			return false
		}
		done[i] = true
		return true
	}
	// best returns the heaviest label among i's neighbours other than
	// itself, summing their weights lane by lane: lane L of a block of
	// stride lanes visits neighbours L, L+stride, L+2·stride, …
	best := func(i graph.Vertex, stride int) (uint32, bool) {
		ts, ws := g.Neighbors(i)
		sum := map[uint32]float64{}
		for lane := range stride {
			for x := lane; x < len(ts); x += stride {
				if j := ts[x]; j != i {
					if wide {
						sum[labels[j]] += float64(ws[x])
					} else {
						sum[labels[j]] = float64(float32(sum[labels[j]]) + ws[x])
					}
				}
			}
		}
		c, top, ties := uint32(0), -1.0, 0
		for l, w := range sum {
			if w > top {
				c, top, ties = l, w, 0
			} else if w == top {
				ties++
			}
		}
		if ties > 0 && run.tie < 0 {
			run.tie = int(i)
		}
		return c, len(sum) > 0
	}
	// move moves vertex i to label c unless c is its label already or
	// Pick-Less forbids it, waking every neighbour; it reports the move.
	move := func(i graph.Vertex, c uint32, pickless bool) int64 {
		if c == labels[i] || pickless && c > labels[i] {
			return 0
		}
		labels[i] = c
		ts, _ := g.Neighbors(i)
		for _, j := range ts {
			done[j] = false
		}
		return 1
	}

	for iter := range opt.MaxIterations {
		pickless := opt.PickLessEvery > 0 && iter%opt.PickLessEvery == 0
		crossCheck := opt.CrossCheckEvery > 0 && iter%opt.CrossCheckEvery == 0
		prev := slices.Clone(labels)
		var it specIter

		// Thread kernel: one vertex per lane. Every lane of a block picks
		// before any lane of it moves.
		for lo := 0; lo < len(low); lo += opt.BlockDim {
			block := low[lo:min(lo+opt.BlockDim, len(low))]
			cand := make([]uint32, len(block))
			ok := make([]bool, len(block))
			for x, i := range block {
				if claim(i) {
					cand[x], ok[x] = best(i, 1)
				}
			}
			for x, i := range block {
				if ok[x] {
					it.moves += move(i, cand[x], pickless)
				}
			}
		}
		// Block kernel: one vertex per block, its neighbours strided over
		// the block's lanes.
		for _, i := range high {
			if claim(i) {
				if c, ok := best(i, opt.BlockDim); ok {
					it.moves += move(i, c, pickless)
				}
			}
		}
		// Cross-Check, vertex by vertex: a move to community c is reverted
		// unless the leader vertex c still belongs to c.
		if crossCheck {
			for i := range labels {
				if c := labels[i]; c != prev[i] && labels[c] != c {
					labels[i] = prev[i]
					done[i] = false
					it.reverts++
				}
			}
		}

		it.deltaN = it.moves - it.reverts
		run.iters = append(run.iters, it)
		// A Pick-Less iteration never converges, except as a fixed point of
		// permanent Pick-Less.
		if it.deltaN == 0 && opt.PickLessEvery == 1 ||
			!pickless && float64(it.deltaN) < opt.Tolerance*float64(n) {
			break
		}
	}
	return run
}
