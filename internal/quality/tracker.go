package quality

import (
	"math"

	"nulpa/internal/graph"
)

// NumSizeBuckets is the length of the community size-distribution histogram:
// sizes 1, 2–4, 5–16, 17–64, 65–256, 257–1024, and >1024.
const NumSizeBuckets = 7

// sizeBucket maps a community size to its histogram index.
func sizeBucket(s int32) int {
	switch {
	case s <= 1:
		return 0
	case s <= 4:
		return 1
	case s <= 16:
		return 2
	case s <= 64:
		return 3
	case s <= 256:
		return 4
	case s <= 1024:
		return 5
	default:
		return 6
	}
}

// TrackerConfig parameterizes a Tracker. The zero value selects the
// published defaults.
type TrackerConfig struct {
	// SampleEvery is the exact-recompute cadence in observed iterations:
	// every SampleEvery-th Observe also runs the O(E) exact modularity,
	// reports the estimator's drift, rebases the incremental sums, and
	// computes churn NMI against the previous sampled snapshot. 0 means 8;
	// negative disables sampling (Final still recomputes exactly).
	SampleEvery int
	// DegLow and DegHigh bound the flip-locality degree classes:
	// degree < DegLow is "low", degree >= DegHigh is "high", the rest "mid".
	// Zero means 8 and 64.
	DegLow, DegHigh int
}

// LiveStats is one Observe call's quality snapshot: the incremental
// modularity estimate, the community census, and the iteration's flip
// locality — plus the exact-recompute fields on sampled iterations. It is
// also the per-iteration wire record, telemetry.QualityRecord.
type LiveStats struct {
	// Iter is the zero-based iteration index the labels belong to.
	Iter int `json:"iter"`
	// Modularity is the live incremental estimate Q̂ after this iteration.
	Modularity float64 `json:"modularity"`
	// DeltaQ is Q̂'s change from the previous observation.
	DeltaQ float64 `json:"deltaQ"`

	// Exact reports whether this observation ran the sampled O(E) recompute;
	// ExactModularity and Drift are only valid when it did.
	Exact           bool    `json:"exact,omitempty"`
	ExactModularity float64 `json:"exactModularity,omitempty"`
	// Drift is |Q̂ − Q_exact| at the recompute — the estimator's accumulated
	// float error since the last rebase.
	Drift float64 `json:"drift,omitempty"`

	// Census of the partition after this iteration.
	Communities   int                   `json:"communities"`
	GiantShare    float64               `json:"giantShare"`    // largest community size / |V|
	SingletonRate float64               `json:"singletonRate"` // size-1 communities / communities
	Entropy       float64               `json:"entropy"`       // label entropy −Σ (s/n)·ln(s/n), in nats
	SizeBuckets   [NumSizeBuckets]int64 `json:"sizeBuckets"`

	// Flip locality: label changes since the previous observation, split by
	// the flipping vertex's degree class.
	Flips     int64 `json:"flips"`
	FlipsLow  int64 `json:"flipsLow,omitempty"`
	FlipsMid  int64 `json:"flipsMid,omitempty"`
	FlipsHigh int64 `json:"flipsHigh,omitempty"`

	// ChurnNMI is the NMI between this sampled snapshot and the previous one
	// (partition churn; 1 = stable). Valid only when ChurnValid — the second
	// and later sampled observations.
	ChurnNMI   float64 `json:"churnNMI,omitempty"`
	ChurnValid bool    `json:"churnValid,omitempty"`
}

// FinalStats is the end-of-run quality summary Final returns: the exact
// modularity, the estimator's final drift and worst sampled drift, and the
// final census plus cumulative flip locality. It is also the wire record of
// Result.Quality and job status, where the flip counts are never omitted.
type FinalStats struct {
	// Modularity is the exact end-of-run Q (an O(E) recompute, not the
	// estimate).
	Modularity float64 `json:"modularity"`
	// Estimate is the incremental estimator's value going into the final
	// recompute; Drift is |Estimate − Modularity|.
	Estimate float64 `json:"estimate"`
	Drift    float64 `json:"drift"`
	// MaxDrift is the largest drift seen across all sampled recomputes
	// including the final one.
	MaxDrift float64 `json:"maxDrift"`
	// Recomputes counts exact recomputes performed (sampled + final).
	Recomputes int `json:"recomputes"`
	// Observed counts Observe calls (iterations with quality accounting).
	Observed int `json:"observed"`

	Communities   int                   `json:"communities"`
	GiantShare    float64               `json:"giantShare"`
	SingletonRate float64               `json:"singletonRate"`
	Entropy       float64               `json:"entropy"`
	SizeBuckets   [NumSizeBuckets]int64 `json:"sizeBuckets"`

	// Cumulative flip locality over the whole run.
	Flips     int64 `json:"flips"`
	FlipsLow  int64 `json:"flipsLow"`
	FlipsMid  int64 `json:"flipsMid"`
	FlipsHigh int64 `json:"flipsHigh"`

	// ChurnNMI is the last sampled churn value (ChurnValid as in LiveStats).
	ChurnNMI   float64 `json:"churnNMI"`
	ChurnValid bool    `json:"churnValid,omitempty"`
}

// Tracker maintains an incremental modularity estimator and community census
// for one run. The first Observe builds the per-community degree/edge sums in
// O(E); each subsequent Observe diffs the labels in O(V) and applies the
// flips in O(Σ deg(flipped)), so live Q costs O(flips) per iteration instead
// of O(E). Flips are applied sequentially against the tracked label state, so
// the incremental sums are exact up to float rounding — the periodic exact
// recompute measures that rounding as "drift" and rebases the sums.
//
// A Tracker observes one run from one goroutine; it is not safe for
// concurrent use.
type Tracker struct {
	g    *graph.CSR
	cfg  TrackerConfig
	n    int
	twoM float64

	init   bool
	labels []uint32  // tracked label state (last observed)
	intra  []float64 // σ_c: intra-community arc weight per community
	total  []float64 // Σ_c: arc weight incident to community c
	csize  []int32   // community sizes

	sumIntra float64 // Σ_c σ_c
	sumSq    float64 // Σ_c (Σ_c)²
	lastQ    float64

	snapshot  []uint32 // previous sampled labels for churn NMI
	haveSnap  bool
	haveChurn bool
	lastChurn float64

	observed   int
	recomputes int
	maxDrift   float64

	// cumulative flip locality
	flips, flipsLow, flipsMid, flipsHigh int64
}

// NewTracker returns a Tracker for g. Nothing is allocated until the first
// Observe.
func NewTracker(g *graph.CSR, cfg TrackerConfig) *Tracker {
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 8
	}
	if cfg.DegLow <= 0 {
		cfg.DegLow = 8
	}
	if cfg.DegHigh <= cfg.DegLow {
		cfg.DegHigh = 64
		if cfg.DegHigh <= cfg.DegLow {
			cfg.DegHigh = cfg.DegLow + 1
		}
	}
	return &Tracker{g: g, cfg: cfg, n: g.NumVertices(), twoM: g.TotalWeight()}
}

// Observe folds iteration iter's label state into the tracker and returns the
// quality snapshot, stamped with iter. labels must cover every vertex of the tracked graph
// (ok=false otherwise — a defensive guard for callers handing shard-local
// arrays). The tracker copies what it needs; labels may be reused.
func (t *Tracker) Observe(iter int, labels []uint32) (ls LiveStats, ok bool) {
	if len(labels) != t.n {
		return LiveStats{}, false
	}
	ls.Iter = iter
	first := !t.init
	if first {
		t.build(labels)
		t.init = true
	} else {
		t.applyFlips(labels, &ls)
	}
	q := t.estimate()
	ls.Modularity = q
	if !first {
		ls.DeltaQ = q - t.lastQ
	}
	t.lastQ = q
	t.census(&ls)
	t.observed++
	t.flips += ls.Flips
	t.flipsLow += ls.FlipsLow
	t.flipsMid += ls.FlipsMid
	t.flipsHigh += ls.FlipsHigh
	if t.cfg.SampleEvery > 0 && t.observed%t.cfg.SampleEvery == 0 {
		t.sample(&ls)
	}
	return ls, true
}

// build constructs the per-community sums from scratch — the O(E) pass the
// first observation pays once.
func (t *Tracker) build(labels []uint32) {
	t.labels = append(t.labels[:0], labels...)
	if t.intra == nil {
		t.intra = make([]float64, t.n)
		t.total = make([]float64, t.n)
		t.csize = make([]int32, t.n)
	}
	t.rebase()
}

// ensure grows the per-community arrays to index label c. Labels produced by
// the repository's detectors are vertex ids (< |V|), so this only fires for
// exotic label universes.
func (t *Tracker) ensure(c uint32) {
	for int(c) >= len(t.intra) {
		t.intra = append(t.intra, 0)
		t.total = append(t.total, 0)
		t.csize = append(t.csize, 0)
	}
}

// applyFlips diffs labels against the tracked state and applies each flip
// sequentially: for a vertex moving d→c, every incident arc (u,v,w) moves w
// of Σ from d to c, and contributes ±2w to σ when the neighbour (at its
// current tracked label) sits in d or c — exactly the arc-sum semantics of
// ModularityResolution, so the sums stay exact up to float rounding.
func (t *Tracker) applyFlips(labels []uint32, ls *LiveStats) {
	g := t.g
	for u := 0; u < t.n; u++ {
		c := labels[u]
		d := t.labels[u]
		if c == d {
			continue
		}
		t.ensure(c)
		ts, ws := g.Neighbors(graph.Vertex(u))
		var ki float64
		for k, v := range ts {
			w := float64(ws[k])
			ki += w
			if int(v) == u {
				// A self-loop arc follows u wholesale: it was intra in d,
				// it is intra in c. Σ moves via ki below.
				t.intra[d] -= w
				t.intra[c] += w
				continue
			}
			switch t.labels[v] {
			case d:
				t.intra[d] -= 2 * w // u→v and v→u both left d
				t.sumIntra -= 2 * w
			case c:
				t.intra[c] += 2 * w
				t.sumIntra += 2 * w
			}
		}
		t.sumSq -= t.total[d]*t.total[d] + t.total[c]*t.total[c]
		t.total[d] -= ki
		t.total[c] += ki
		t.sumSq += t.total[d]*t.total[d] + t.total[c]*t.total[c]
		t.csize[d]--
		t.csize[c]++
		t.labels[u] = c

		ls.Flips++
		switch deg := len(ts); {
		case deg < t.cfg.DegLow:
			ls.FlipsLow++
		case deg >= t.cfg.DegHigh:
			ls.FlipsHigh++
		default:
			ls.FlipsMid++
		}
	}
}

// estimate is Q̂ = Σσ/2m − ΣΣ²/(2m)² from the incremental sums (classic
// modularity, γ = 1).
func (t *Tracker) estimate() float64 {
	if t.twoM == 0 {
		return 0
	}
	return t.sumIntra/t.twoM - t.sumSq/(t.twoM*t.twoM)
}

// census scans the community sizes into the count/share/entropy/bucket view.
// O(community-array length) with no allocation.
func (t *Tracker) census(ls *LiveStats) {
	var comms, singles int
	var giant int32
	var h float64
	fn := float64(t.n)
	for _, s := range t.csize {
		if s <= 0 {
			continue
		}
		comms++
		if s == 1 {
			singles++
		}
		if s > giant {
			giant = s
		}
		p := float64(s) / fn
		h -= p * math.Log(p)
		ls.SizeBuckets[sizeBucket(s)]++
	}
	ls.Communities = comms
	if t.n > 0 {
		ls.GiantShare = float64(giant) / fn
	}
	if comms > 0 {
		ls.SingletonRate = float64(singles) / float64(comms)
	}
	ls.Entropy = h
}

// sample runs the exact recompute, fills the drift/churn fields, rebases the
// incremental sums, and snapshots the labels for the next churn comparison.
func (t *Tracker) sample(ls *LiveStats) {
	exact := t.rebase()
	t.recomputes++
	ls.Exact = true
	ls.ExactModularity = exact
	ls.Drift = math.Abs(ls.Modularity - exact)
	if ls.Drift > t.maxDrift {
		t.maxDrift = ls.Drift
	}
	t.lastQ = exact
	if t.haveSnap {
		ls.ChurnNMI = NMI(t.snapshot, t.labels)
		ls.ChurnValid = true
		t.lastChurn = ls.ChurnNMI
		t.haveChurn = true
	}
	t.snapshot = append(t.snapshot[:0], t.labels...)
	t.haveSnap = true
}

// rebase recomputes the per-community sums from the tracked labels in O(E)
// (reusing the existing arrays) and returns the exact modularity.
func (t *Tracker) rebase() float64 {
	for i := range t.intra {
		t.intra[i] = 0
		t.total[i] = 0
		t.csize[i] = 0
	}
	g := t.g
	for u := 0; u < t.n; u++ {
		c := t.labels[u]
		t.ensure(c)
		t.csize[c]++
		ts, ws := g.Neighbors(graph.Vertex(u))
		for k, v := range ts {
			w := float64(ws[k])
			t.total[c] += w
			if t.labels[v] == c {
				t.intra[c] += w
			}
		}
	}
	t.sumIntra, t.sumSq = 0, 0
	for i := range t.intra {
		t.sumIntra += t.intra[i]
		t.sumSq += t.total[i] * t.total[i]
	}
	return t.estimate()
}

// Final runs a last exact recompute and returns the run's quality summary.
// Safe to call on a tracker that never observed (zero-valued summary).
func (t *Tracker) Final() FinalStats {
	var fs FinalStats
	if !t.init {
		return fs
	}
	fs.Estimate = t.estimate()
	fs.Modularity = t.rebase()
	t.recomputes++
	fs.Drift = math.Abs(fs.Estimate - fs.Modularity)
	if fs.Drift > t.maxDrift {
		t.maxDrift = fs.Drift
	}
	t.lastQ = fs.Modularity
	fs.MaxDrift = t.maxDrift
	fs.Recomputes = t.recomputes
	fs.Observed = t.observed
	var ls LiveStats
	t.census(&ls)
	fs.Communities = ls.Communities
	fs.GiantShare = ls.GiantShare
	fs.SingletonRate = ls.SingletonRate
	fs.Entropy = ls.Entropy
	fs.SizeBuckets = ls.SizeBuckets
	fs.Flips = t.flips
	fs.FlipsLow = t.flipsLow
	fs.FlipsMid = t.flipsMid
	fs.FlipsHigh = t.flipsHigh
	fs.ChurnNMI = t.lastChurn
	fs.ChurnValid = t.haveChurn
	return fs
}
