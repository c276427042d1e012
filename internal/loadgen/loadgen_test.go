package loadgen

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	_ "nulpa/internal/engine/all"
	"nulpa/internal/httpapi"
	"nulpa/internal/sched"
)

func newPlane(t *testing.T, cfg sched.Config) *httptest.Server {
	t.Helper()
	srv := httpapi.NewServer(httpapi.WithScheduler(cfg))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(ts.Close)
	return ts
}

// TestRunAgainstServingPlane drives a short open-loop run against a real
// in-process serving plane and checks the full pipeline: every submission
// is accounted for, nothing is lost, the server-side ledger balances, and
// the report carries sane latency numbers.
func TestRunAgainstServingPlane(t *testing.T) {
	ts := newPlane(t, sched.Config{Workers: 2, QueueDepth: 32})
	r, err := Run(context.Background(), Config{
		URL:        ts.URL,
		Rate:       200,
		Jobs:       24,
		Algo:       "flpa",
		N:          256,
		Deg:        6,
		Priorities: []string{"high", "normal", "low"},
		Tenants:    3,
		JobTimeout: 30 * time.Second,
		Seed:       42,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Submitted != 24 {
		t.Fatalf("submitted = %d, want 24", r.Submitted)
	}
	if r.Admitted+r.Shed429+r.Shed503+r.Errors != r.Submitted {
		t.Fatalf("ledger does not balance: %+v", r)
	}
	if r.Lost != 0 || r.Errors != 0 {
		t.Fatalf("lost=%d errors=%d, want 0/0", r.Lost, r.Errors)
	}
	if r.ShedMissingRetryAfter != 0 {
		t.Fatalf("%d sheds missing Retry-After", r.ShedMissingRetryAfter)
	}
	if !r.MetricsBalanced {
		t.Fatalf("server ledger unbalanced: %s", r.CrosscheckDetail)
	}
	if r.Done == 0 {
		t.Fatalf("no jobs completed: %+v", r)
	}
	if r.Done > 0 && (r.E2EP50MS <= 0 || r.E2EP99MS < r.E2EP50MS) {
		t.Fatalf("implausible latency percentiles: p50=%.2f p99=%.2f", r.E2EP50MS, r.E2EP99MS)
	}
	if !r.Healthy() {
		t.Fatalf("report not healthy: %+v", r)
	}
}

// TestRunShedsUnderOverload saturates a tiny pool and checks that the
// driver observes honest shedding — 429s with Retry-After — while every
// admitted job still resolves.
func TestRunShedsUnderOverload(t *testing.T) {
	ts := newPlane(t, sched.Config{Workers: 1, QueueDepth: 2})
	r, err := Run(context.Background(), Config{
		URL:        ts.URL,
		Rate:       2000, // far past a 1-worker pool on n=2000 graphs
		Jobs:       30,
		Algo:       "flpa",
		N:          2000,
		Deg:        8,
		JobTimeout: 60 * time.Second,
		Seed:       7,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Shed429 == 0 {
		t.Fatalf("expected queue-full sheds at 2000/s on a 1-worker pool: %+v", r)
	}
	if r.Lost != 0 {
		t.Fatalf("lost %d admitted jobs", r.Lost)
	}
	if r.ShedMissingRetryAfter != 0 {
		t.Fatalf("%d sheds missing Retry-After", r.ShedMissingRetryAfter)
	}
	if !r.MetricsBalanced {
		t.Fatalf("server ledger unbalanced: %s", r.CrosscheckDetail)
	}
}

// TestIdenticalSubmissionsCoalesce checks the Identical knob: same spec
// repeatedly submitted should coalesce or cache-hit rather than recompute.
func TestIdenticalSubmissionsCoalesce(t *testing.T) {
	ts := newPlane(t, sched.Config{Workers: 2, QueueDepth: 32})
	r, err := Run(context.Background(), Config{
		URL:        ts.URL,
		Rate:       500,
		Jobs:       12,
		Algo:       "flpa",
		N:          1500,
		Deg:        8,
		Identical:  true,
		JobTimeout: 30 * time.Second,
		Seed:       3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Lost != 0 || !r.MetricsBalanced {
		t.Fatalf("unhealthy identical run: %+v", r)
	}
	if r.Coalesced+r.CacheHits == 0 {
		t.Fatalf("identical submissions neither coalesced nor cache-hit: %+v", r)
	}
}

// TestChaosUnderLoad attaches a fault schedule (kernel failures and bit
// flips) to every submission of a fault-tolerant detector and checks that
// the serving plane still accounts for every job: faulted runs recover or
// fail with a typed error, but none is lost and the ledger balances.
func TestChaosUnderLoad(t *testing.T) {
	ts := newPlane(t, sched.Config{Workers: 2, QueueDepth: 8, QuotaRate: 200})
	r, err := Run(context.Background(), Config{
		URL:        ts.URL,
		Rate:       50,
		Jobs:       12,
		Algo:       "nulpa",
		Gen:        "planted",
		N:          300,
		Deg:        8,
		Workers:    2,
		Faults:     "kernel=0.05,bitflip=0.02,seed=7",
		JobTimeout: 60 * time.Second,
		Seed:       23,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Lost != 0 || r.Errors != 0 {
		t.Fatalf("lost=%d errors=%d, want 0/0: %+v", r.Lost, r.Errors, r)
	}
	if !r.MetricsBalanced {
		t.Fatalf("server ledger unbalanced: %s", r.CrosscheckDetail)
	}
	if !r.Healthy() {
		t.Fatalf("report not healthy: %+v", r)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.0, 1}}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%.2f) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// TestParseLedger pins the crosscheck's reading of a /metrics exposition:
// exemplar suffixes, labelled children summed, look-alike names kept apart,
// an empty family read as 0, and a missing family an error.
func TestParseLedger(t *testing.T) {
	const header = `# HELP httpapi_jobs_submitted_total Jobs accepted.
# TYPE httpapi_jobs_submitted_total counter
httpapi_jobs_submitted_total 7 # {trace_id="00000000000000ab"} 1 1700000000.000
# TYPE httpapi_jobs_active gauge
httpapi_jobs_active 0
# TYPE sched_queue_depth gauge
sched_queue_depth 0
# TYPE sched_queue_wait_seconds histogram
sched_queue_wait_seconds_bucket{le="0.001"} 5
sched_queue_wait_seconds_bucket{le="+Inf"} 7
sched_queue_wait_seconds_sum 0.25
sched_queue_wait_seconds_count 7
# TYPE sched_running gauge
sched_running 1
`
	cases := []struct {
		name    string
		text    string
		want    map[string]float64
		wantErr string
	}{
		{
			name: "children summed",
			text: header + `# TYPE httpapi_jobs_finished_total counter
httpapi_jobs_finished_total{state="canceled"} 1
httpapi_jobs_finished_total{state="done"} 5 # {trace_id="00000000000000cd"} 1 1700000001.000
httpapi_jobs_finished_total{state="failed"} 1
`,
			want: map[string]float64{
				"httpapi_jobs_submitted_total": 7,
				"httpapi_jobs_finished_total":  7,
				"httpapi_jobs_active":          0,
				"sched_queue_depth":            0,
				"sched_running":                1,
			},
		},
		{
			name: "empty family reads 0",
			text: header + "# TYPE httpapi_jobs_finished_total counter\n",
			want: map[string]float64{
				"httpapi_jobs_submitted_total": 7,
				"httpapi_jobs_finished_total":  0,
				"httpapi_jobs_active":          0,
				"sched_queue_depth":            0,
				"sched_running":                1,
			},
		},
		{
			name:    "missing family",
			text:    header,
			wantErr: "httpapi_jobs_finished_total",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseLedger(c.text)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one naming %s", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range ledgerFamilies {
				if got[f] != c.want[f] {
					t.Errorf("%s = %v, want %v", f, got[f], c.want[f])
				}
			}
		})
	}
}
