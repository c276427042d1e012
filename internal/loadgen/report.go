package loadgen

import (
	"fmt"
	"io"
)

// ReportSchema versions the loadgen report JSON; bump on incompatible field
// changes.
const ReportSchema = 1

// Report is one load run's outcome: the shed/goodput ledger, latency
// percentiles, and the server-side crosscheck verdict.
type Report struct {
	Schema     int     `json:"schema"`
	Target     string  `json:"target"`
	Rate       float64 `json:"ratePerSec"`
	Algo       string  `json:"algo"`
	Graph      string  `json:"graph"`
	ElapsedSec float64 `json:"elapsedSec"`

	// Outcome ledger. Submitted = Admitted + Shed429 + Shed503 + Errors.
	Submitted int `json:"submitted"`
	Admitted  int `json:"admitted"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
	Shed429   int `json:"shed429"`
	Shed503   int `json:"shed503"`
	// Lost counts admitted jobs never observed terminal within the job
	// timeout — the serving plane's cardinal sin; any nonzero value fails
	// Healthy.
	Lost int `json:"lost"`
	// Errors counts transport/protocol failures (not sheds).
	Errors int `json:"errors"`
	// ShedMissingRetryAfter counts 429/503 responses without a Retry-After
	// header — shedding must always tell the client when to come back.
	ShedMissingRetryAfter int `json:"shedMissingRetryAfter"`
	Coalesced             int `json:"coalesced"`
	CacheHits             int `json:"cacheHits"`

	// Latency percentiles, milliseconds. Submit* is the POST round-trip
	// (admission latency); E2E* is submission to terminal observation.
	SubmitP50MS float64 `json:"submitP50Ms"`
	SubmitP99MS float64 `json:"submitP99Ms"`
	E2EP50MS    float64 `json:"e2eP50Ms"`
	E2EP90MS    float64 `json:"e2eP90Ms"`
	E2EP99MS    float64 `json:"e2eP99Ms"`

	// GoodputPerSec is completed-successfully jobs per wall-clock second.
	GoodputPerSec float64 `json:"goodputPerSec"`

	// MetricsBalanced reports whether the server's own job ledger on
	// /metrics balanced after the run (submitted == finished, nothing active or
	// queued); CrosscheckDetail carries the final counter snapshot.
	MetricsBalanced  bool   `json:"metricsBalanced"`
	CrosscheckDetail string `json:"crosscheckDetail,omitempty"`
}

// Healthy is the run's pass verdict: no lost jobs, no transport errors, no
// malformed sheds, and a balanced server-side ledger.
func (r *Report) Healthy() bool {
	return r.Lost == 0 && r.Errors == 0 && r.ShedMissingRetryAfter == 0 && r.MetricsBalanced
}

// Summary renders the human-readable run summary.
func (r *Report) Summary(w io.Writer) {
	fmt.Fprintf(w, "loadgen: %d submitted in %.2fs (%.0f/s target) against %s\n",
		r.Submitted, r.ElapsedSec, r.Rate, r.Target)
	fmt.Fprintf(w, "  admitted %d (done %d, failed %d, canceled %d, lost %d)  shed %d (429 %d / 503 %d)  errors %d\n",
		r.Admitted, r.Done, r.Failed, r.Canceled, r.Lost, r.Shed429+r.Shed503, r.Shed429, r.Shed503, r.Errors)
	fmt.Fprintf(w, "  coalesced %d  cache hits %d  goodput %.1f jobs/s\n",
		r.Coalesced, r.CacheHits, r.GoodputPerSec)
	fmt.Fprintf(w, "  submit p50/p99 %.1f/%.1f ms   e2e p50/p90/p99 %.1f/%.1f/%.1f ms\n",
		r.SubmitP50MS, r.SubmitP99MS, r.E2EP50MS, r.E2EP90MS, r.E2EP99MS)
	fmt.Fprintf(w, "  crosscheck: balanced=%v (%s)\n", r.MetricsBalanced, r.CrosscheckDetail)
}
