package telemetry

// Work accounting: algorithmic work counters — the quantities a speed
// optimisation actually changes, long before noisy wall-clock timings show
// it. A WorkCounts is the one ledger type: a simt TallyKernel's FoldTallies
// returns one per launch, the device records it as the Launch's Work and
// adds it to the nulpa_work_*_total metrics, and every
// detector's per-iteration records carry the same quantities (EdgeVisits,
// Moves, ActiveVertices, HashProbes/HashCollisions on IterRecord), so the
// per-kernel and per-iteration views are two projections of one accounting.

// WorkCounts is the per-kernel (or per-run) algorithmic work ledger.
type WorkCounts struct {
	// EdgeVisits counts edge (arc) inspections: neighbour scans during
	// label accumulation plus neighbourhood wake-up scans after a move.
	EdgeVisits int64 `json:"edgeVisits,omitempty"`
	// LabelFlips counts committed label changes (gross, before reverts);
	// a Cross-Check revert is itself a flip back.
	LabelFlips int64 `json:"labelFlips,omitempty"`
	// HashProbes and HashCollisions are the per-vertex hashtable probe
	// accounting (the hashtable tallies' folded counts).
	HashProbes     int64 `json:"hashProbes,omitempty"`
	HashCollisions int64 `json:"hashCollisions,omitempty"`
	// ActiveVertices counts vertices actually processed — the frontier
	// occupancy numerator; ActiveVertices / (iterations · |V|) is the mean
	// fraction of the graph doing work per round.
	ActiveVertices int64 `json:"activeVertices,omitempty"`
}

// Add returns the field-wise sum w + o.
func (w WorkCounts) Add(o WorkCounts) WorkCounts {
	return WorkCounts{
		EdgeVisits:     w.EdgeVisits + o.EdgeVisits,
		LabelFlips:     w.LabelFlips + o.LabelFlips,
		HashProbes:     w.HashProbes + o.HashProbes,
		HashCollisions: w.HashCollisions + o.HashCollisions,
		ActiveVertices: w.ActiveVertices + o.ActiveVertices,
	}
}

// IsZero reports whether no work was recorded.
func (w WorkCounts) IsZero() bool { return w == WorkCounts{} }

// TotalWork sums a run's iteration trace into one ledger — the run-grained
// work view: Moves are label flips, and the other counts carry over
// directly.
func TotalWork(recs []IterRecord) WorkCounts {
	r := Sum(recs)
	return WorkCounts{
		EdgeVisits:     r.EdgeVisits,
		LabelFlips:     r.Moves,
		HashProbes:     r.HashProbes,
		HashCollisions: r.HashCollisions,
		ActiveVertices: r.ActiveVertices,
	}
}

// KernelWorkByName aggregates recorded per-launch work per kernel name, in
// first-launch order — the per-kernel work view.
func (r *Recorder) KernelWorkByName() map[string]WorkCounts {
	out := map[string]WorkCounts{}
	for _, s := range r.KernelSummaries() {
		if !s.Work.IsZero() {
			out[s.Kernel] = s.Work
		}
	}
	return out
}
