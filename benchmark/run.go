package main

import (
	"fmt"
	"math"
	"time"
)

// result collects one run's samples and outcome.
type result struct {
	attempted, failed int
	errs              []string
	// samples holds per-rep (or per-job) raw values by metric name; a
	// metric's value is their median unless values sets it directly.
	samples map[string][]float64
	values  map[string]float64
}

func newResult() *result {
	return &result{samples: map[string][]float64{}, values: map[string]float64{}}
}

func (r *result) add(name string, xs ...float64) { r.samples[name] = append(r.samples[name], xs...) }
func (r *result) set(name string, v float64)     { r.values[name] = v }

// fail counts a failed rep or job; the first few errors are kept.
func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// value returns the metric's value and whether the run produced it; a
// metric it did not produce reads 0.
func (r *result) value(name string) (float64, bool) {
	v, ok := r.values[name]
	if !ok {
		xs, has := r.samples[name]
		if !has {
			return 0, false
		}
		v = median(xs)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return v, true
}

// runOneShot measures the command-line path: set-up, warm-up, then reps
// back to back until seconds have passed.
func runOneShot(w *workload, seed int64, seconds time.Duration, tr *tracer) (*result, error) {
	ins, setup, err := setUp(w, seed, tr)
	if err != nil {
		return nil, err
	}
	if err := warmUp(w, ins, tr); err != nil {
		return nil, err
	}
	r := newResult()
	r.add("setup_s", setup...)
	var elapsed time.Duration
	start := time.Now()
	for r.attempted == 0 || time.Since(start) < seconds {
		rp, err := runRep(w, ins[r.attempted%len(ins)], tr, nil)
		r.attempted++
		elapsed = time.Since(start)
		if err != nil {
			r.fail(err)
			continue
		}
		r.add("e2e_s", rp.total.Seconds())
		r.add("detect_s", rp.detect.Seconds())
		r.add("modularity", rp.q)
		r.add("alloc_mb", float64(rp.alloc)/1e6)
	}
	r.set("requests_per_s", float64(len(r.samples["e2e_s"]))/elapsed.Seconds())
	return r, nil
}

// warmUp runs w's untimed reps, one per input in turn.
func warmUp(w *workload, ins []*input, tr *tracer) error {
	for i := 0; i < w.warmup; i++ {
		if _, err := runRep(w, ins[i%len(ins)], tr, nil); err != nil {
			return fmt.Errorf("warm-up rep: %w", err)
		}
	}
	return nil
}

// runServing measures the job service: set-up, warm-up jobs, then the
// closed loop until seconds have passed.
func runServing(w *workload, seed int64, seconds time.Duration, tr *tracer) (*result, error) {
	s, setup, err := setUpService(w, seed, tr)
	if err != nil {
		return nil, err
	}
	defer s.close()
	sv, err := serveLoop(s, w, seed,
		func(i int, elapsed time.Duration) bool { return i == 0 || elapsed < seconds }, tr)
	if err != nil {
		return nil, err
	}
	r := newResult()
	r.add("setup_s", setup...)
	for _, j := range sv.jobs {
		r.attempted++
		if j.err != nil {
			r.fail(j.err)
			continue
		}
		r.add("e2e_s", j.total.Seconds())
		r.add("modularity", j.st.Modularity)
		if j.executed() {
			r.add("detect_s", j.st.DurationMS/1e3)
		}
	}
	r.set("requests_per_s", float64(len(r.samples["e2e_s"]))/sv.elapsed.Seconds())
	r.set("alloc_mb", float64(sv.alloc)/float64(len(sv.jobs))/1e6)
	return r, nil
}
