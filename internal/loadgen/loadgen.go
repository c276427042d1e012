// Package loadgen is the open-loop load driver for the serving plane: it
// fires POST /jobs arrivals at a target rate regardless of how fast the
// server answers (open-loop, so an overloaded server faces a growing front
// of work instead of a politely self-throttling client), polls every
// admitted job to a terminal state, and reports latency percentiles,
// shed/goodput accounting, and a lost-job crosscheck against the server's
// own job ledger on /metrics.
//
// The driver is deliberately dependency-light (stdlib only) and knows the
// serving plane only through its HTTP surface, so it measures what a real
// client sees — admission latency, Retry-After honesty, end-to-end job
// latency — not what the server believes about itself.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config drives one load run.
type Config struct {
	// URL is the serving plane's base URL (e.g. http://127.0.0.1:8080).
	URL string
	// Rate is the open-loop arrival rate in submissions per second.
	Rate float64
	// Jobs is the total number of submissions to fire.
	Jobs int
	// Algo and the generator fields form the submitted JobSpec. Each
	// submission gets a distinct graph seed (defeating result coalescing)
	// unless Identical is set.
	Algo      string
	Gen       string
	N         int
	Deg       int
	Identical bool
	// Workers is the per-job detector parallelism (JobSpec.workers).
	Workers int
	// Priorities is the cycled priority mix; empty means all normal.
	Priorities []string
	// Tenants is the number of distinct X-Tenant values cycled across
	// submissions; 0 or 1 sends everything as one tenant.
	Tenants int
	// DeadlineMS, when > 0, is attached to every submission as the
	// admission deadline budget.
	DeadlineMS int64
	// Faults, when set, is attached to every submission (chaos under load).
	Faults string
	// JobTimeout bounds how long the driver polls one admitted job for a
	// terminal state before declaring it lost. Default 60s.
	JobTimeout time.Duration
	// PollInterval is the status poll cadence. Default 20ms.
	PollInterval time.Duration
	// Seed drives the arrival jitter and mix cycling.
	Seed int64
	// Client overrides the HTTP client (tests); nil uses a pooled default.
	Client *http.Client
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// Outcome classifies one submission's fate.
type Outcome string

const (
	OutDone     Outcome = "done"
	OutFailed   Outcome = "failed"
	OutCanceled Outcome = "canceled"
	OutShed429  Outcome = "shed-429"
	OutShed503  Outcome = "shed-503"
	OutLost     Outcome = "lost"  // admitted but never observed terminal
	OutError    Outcome = "error" // transport or protocol error
)

// sample is one submission's measured life.
type sample struct {
	outcome  Outcome
	submitMS float64 // POST round-trip
	e2eMS    float64 // POST start -> terminal observation (admitted only)
	cacheHit bool
	coalesce bool
	retryHdr bool // shed responses: Retry-After present
}

// Run fires cfg.Jobs submissions at cfg.Rate and blocks until every
// admitted job resolved (or timed out as lost) and the server-side ledger
// has been crosschecked.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Rate <= 0 {
		cfg.Rate = 50
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 100
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 60 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 20 * time.Millisecond
	}
	if cfg.Algo == "" {
		cfg.Algo = "flpa"
	}
	if cfg.Gen == "" {
		cfg.Gen = "er"
	}
	if cfg.N <= 0 {
		cfg.N = 1000
	}
	if cfg.Deg <= 0 {
		cfg.Deg = 8
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	samples := make([]sample, cfg.Jobs)
	var wg sync.WaitGroup
	start := time.Now()
	logf("loadgen: %d jobs at %.0f/s against %s (open loop)", cfg.Jobs, cfg.Rate, cfg.URL)

	tick := time.NewTicker(interval)
	defer tick.Stop()
arrivals:
	for i := 0; i < cfg.Jobs; i++ {
		if i > 0 {
			select {
			case <-tick.C:
			case <-ctx.Done():
				samples = samples[:i]
				logf("loadgen: context canceled after %d arrivals", i)
				break arrivals
			}
		}
		wg.Add(1)
		go func(i int, jitter int64) {
			defer wg.Done()
			samples[i] = submitAndTrack(ctx, client, cfg, i, jitter)
		}(i, rng.Int63())
	}
	wg.Wait()
	elapsed := time.Since(start)

	r := summarize(samples, elapsed)
	r.Target = cfg.URL
	r.Rate = cfg.Rate
	r.Algo = cfg.Algo
	r.Graph = fmt.Sprintf("%s(n=%d,deg=%d)", cfg.Gen, cfg.N, cfg.Deg)

	// Server-side crosscheck: the driver's view of "no lost jobs" (every
	// admitted submission observed terminal) can be fooled by eviction
	// racing the poller, so also require the server's own ledger to
	// balance: submitted == finished and nothing still active.
	balanced, detail, err := crosscheck(ctx, client, cfg.URL, 30*time.Second)
	if err != nil {
		logf("loadgen: crosscheck unavailable: %v", err)
		r.CrosscheckDetail = fmt.Sprintf("unavailable: %v", err)
	} else {
		r.MetricsBalanced = balanced
		r.CrosscheckDetail = detail
	}
	return r, nil
}

// submitAndTrack fires one arrival and follows it to the end.
func submitAndTrack(ctx context.Context, client *http.Client, cfg Config, i int, jitter int64) sample {
	spec := map[string]any{
		"algo": cfg.Algo,
		"graph": map[string]any{
			"gen": cfg.Gen, "n": cfg.N, "deg": cfg.Deg,
			"seed": seedFor(cfg, i),
		},
	}
	if cfg.Workers > 0 {
		spec["workers"] = cfg.Workers
	}
	if len(cfg.Priorities) > 0 {
		spec["priority"] = cfg.Priorities[i%len(cfg.Priorities)]
	}
	if cfg.DeadlineMS > 0 {
		spec["deadlineMs"] = cfg.DeadlineMS
	}
	if cfg.Faults != "" {
		spec["faults"] = cfg.Faults
	}
	body, _ := json.Marshal(spec)

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.URL+"/jobs", strings.NewReader(string(body)))
	if err != nil {
		return sample{outcome: OutError}
	}
	req.Header.Set("Content-Type", "application/json")
	if cfg.Tenants > 1 {
		req.Header.Set("X-Tenant", fmt.Sprintf("tenant-%d", i%cfg.Tenants))
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return sample{outcome: OutError}
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := sample{submitMS: float64(time.Since(t0)) / float64(time.Millisecond)}

	switch resp.StatusCode {
	case http.StatusAccepted:
		var st struct {
			ID        int    `json:"id"`
			State     string `json:"state"`
			Coalesced bool   `json:"coalesced"`
			CacheHit  bool   `json:"cacheHit"`
		}
		if err := json.Unmarshal(data, &st); err != nil || st.ID == 0 {
			s.outcome = OutError
			return s
		}
		s.coalesce, s.cacheHit = st.Coalesced, st.CacheHit
		s.outcome, s.e2eMS = pollTerminal(ctx, client, cfg, st.ID, t0)
		return s
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		if resp.StatusCode == http.StatusTooManyRequests {
			s.outcome = OutShed429
		} else {
			s.outcome = OutShed503
		}
		s.retryHdr = resp.Header.Get("Retry-After") != ""
		return s
	default:
		s.outcome = OutError
		return s
	}
}

// seedFor gives every submission its own graph seed unless the run wants
// identical (coalescing) submissions.
func seedFor(cfg Config, i int) int64 {
	if cfg.Identical {
		return cfg.Seed + 1
	}
	return cfg.Seed + 1 + int64(i)
}

// pollTerminal follows one admitted job to a terminal state. A 404 means
// the finished job was already evicted by the retention cap — it did reach
// a terminal state (only terminal jobs are evicted), but its final class is
// unknown; count it as done for goodput purposes only when the server-side
// crosscheck balances.
func pollTerminal(ctx context.Context, client *http.Client, cfg Config, id int, t0 time.Time) (Outcome, float64) {
	deadline := time.Now().Add(cfg.JobTimeout)
	url := fmt.Sprintf("%s/jobs/%d", cfg.URL, id)
	for {
		if ctx.Err() != nil || time.Now().After(deadline) {
			return OutLost, 0
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		resp, err := client.Do(req)
		if err != nil {
			time.Sleep(cfg.PollInterval)
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return OutDone, float64(time.Since(t0)) / float64(time.Millisecond)
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(data, &st); err == nil {
			switch st.State {
			case "done":
				return OutDone, float64(time.Since(t0)) / float64(time.Millisecond)
			case "failed":
				return OutFailed, float64(time.Since(t0)) / float64(time.Millisecond)
			case "canceled":
				return OutCanceled, float64(time.Since(t0)) / float64(time.Millisecond)
			}
		}
		time.Sleep(cfg.PollInterval)
	}
}

// ledgerFamilies are the server's job-ledger series the crosscheck reads
// from /metrics.
var ledgerFamilies = []string{
	"httpapi_jobs_submitted_total",
	"httpapi_jobs_finished_total",
	"httpapi_jobs_active",
	"sched_queue_depth",
	"sched_running",
}

// crosscheck scrapes /metrics until the server's job ledger balances
// (submitted == finished, nothing active, scheduler queue empty) or the
// timeout passes. Returns the balance verdict and a human-readable detail.
func crosscheck(ctx context.Context, client *http.Client, base string, timeout time.Duration) (bool, string, error) {
	deadline := time.Now().Add(timeout)
	var detail string
	for {
		l, err := fetchLedger(ctx, client, base)
		if err != nil {
			return false, "", err
		}
		submitted, finished := l["httpapi_jobs_submitted_total"], l["httpapi_jobs_finished_total"]
		active, queued, running := l["httpapi_jobs_active"], l["sched_queue_depth"], l["sched_running"]
		detail = fmt.Sprintf("submitted=%.0f finished=%.0f active=%.0f queued=%.0f running=%.0f",
			submitted, finished, active, queued, running)
		if submitted == finished && active == 0 && queued == 0 && running == 0 {
			return true, detail, nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return false, detail, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// fetchLedger scrapes /metrics and reads the job ledger from it.
func fetchLedger(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseLedger(string(body))
}

// parseLedger sums each ledger family's samples over their labels from a
// Prometheus text exposition. A family whose # TYPE line is present but
// which has no samples (a labelled family no child of which exists yet)
// reads 0; a family with no # TYPE line is an error, so a renamed series
// cannot pass for a balanced ledger.
func parseLedger(text string) (map[string]float64, error) {
	sums := map[string]float64{}
	typed := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			typed[name] = true
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i] // an OpenMetrics exemplar follows the value
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || line[0] == '#' {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if !slices.Contains(ledgerFamilies, name) {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: sample %q: %v", line, err)
		}
		sums[name] += v
	}
	var missing []string
	for _, f := range ledgerFamilies {
		if !typed[f] {
			missing = append(missing, f)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("/metrics has no ledger family %s", strings.Join(missing, ", "))
	}
	return sums, nil
}

// percentile returns the p-quantile (0..1) of sorted xs by nearest-rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// summarize folds the samples into the report.
func summarize(samples []sample, elapsed time.Duration) *Report {
	r := &Report{Schema: ReportSchema, ElapsedSec: elapsed.Seconds()}
	var submitLats, e2eLats []float64
	for _, s := range samples {
		r.Submitted++
		switch s.outcome {
		case OutDone:
			r.Done++
		case OutFailed:
			r.Failed++
		case OutCanceled:
			r.Canceled++
		case OutShed429:
			r.Shed429++
			if !s.retryHdr {
				r.ShedMissingRetryAfter++
			}
		case OutShed503:
			r.Shed503++
			if !s.retryHdr {
				r.ShedMissingRetryAfter++
			}
		case OutLost:
			r.Lost++
		default:
			r.Errors++
		}
		if s.coalesce {
			r.Coalesced++
		}
		if s.cacheHit {
			r.CacheHits++
		}
		if s.submitMS > 0 {
			submitLats = append(submitLats, s.submitMS)
		}
		if s.e2eMS > 0 {
			e2eLats = append(e2eLats, s.e2eMS)
		}
	}
	r.Admitted = r.Done + r.Failed + r.Canceled + r.Lost
	sort.Float64s(submitLats)
	sort.Float64s(e2eLats)
	r.SubmitP50MS = percentile(submitLats, 0.50)
	r.SubmitP99MS = percentile(submitLats, 0.99)
	r.E2EP50MS = percentile(e2eLats, 0.50)
	r.E2EP90MS = percentile(e2eLats, 0.90)
	r.E2EP99MS = percentile(e2eLats, 0.99)
	if elapsed > 0 {
		r.GoodputPerSec = float64(r.Done) / elapsed.Seconds()
	}
	return r
}
