package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/quality"
	"nulpa/internal/telemetry"
)

// setupReps is how many times a run sets up; setup_s is the median. A
// one-shot run sets up a different graph each time and cycles its reps over
// all of them, so its medians depend less on one graph's luck.
const setupReps = 5

// input is one graph of a one-shot run: the CSR and its binary file image,
// which every rep ingests as the command-line tool would.
type input struct {
	g   *graph.CSR
	bin []byte
}

// inputSeed is the generator seed of a run's k-th graph.
func inputSeed(seed int64, k int) int64 { return seed*100 + int64(k) }

// setUp generates each of the run's graphs (building the CSR) and
// serializes it with WriteBinary, returning the inputs and each set-up's
// time in seconds.
func setUp(w *workload, seed int64, tr *tracer) ([]*input, []float64, error) {
	var ins []*input
	var times []float64
	for k := 0; k < setupReps; k++ {
		runtime.GC()
		req := tr.req()
		root := tr.begin("setup", req, 0)
		var g *graph.CSR
		tr.timed("generate", req, root, func() { g = w.graph(inputSeed(seed, k)) })
		var buf bytes.Buffer
		var err error
		tr.timed("write-binary", req, root, func() { err = graph.WriteBinary(&buf, g) })
		d := tr.end(root)
		if err != nil {
			return nil, nil, fmt.Errorf("write binary: %w", err)
		}
		ins = append(ins, &input{g: g, bin: buf.Bytes()})
		times = append(times, d.Seconds())
	}
	return ins, times, nil
}

// rep is one pass of the command-line path over the in-memory graph file.
type rep struct {
	ingest, detect, summarize, encode, total time.Duration
	res                                      *engine.Result
	n                                        int
	q                                        float64
	// alloc is the bytes the pass allocated on the heap.
	alloc uint64
}

// runRep ingests the graph with ReadBinary, detects communities, summarizes
// them and encodes the "vertex label" lines the tool writes. prof, when
// non-nil, is attached as the run's profiler (the traced reps). The garbage
// collector runs first, outside the timed region.
func runRep(w *workload, in *input, tr *tracer, prof *telemetry.Recorder) (*rep, error) {
	runtime.GC()
	det, err := engine.MustGet(w.algo)
	if err != nil {
		return nil, err
	}
	opt := engine.DefaultOptions()
	opt.Extra = w.extra
	opt.Profiler = prof
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	r := &rep{}
	req := tr.req()
	root := tr.begin("rep", req, 0)
	var g *graph.CSR
	var rerr, derr error
	r.ingest = tr.timed("ingest", req, root, func() { g, rerr = graph.ReadBinary(bytes.NewReader(in.bin)) })
	if rerr == nil {
		r.detect = tr.timed("detect", req, root, func() { r.res, derr = det.Detect(g, opt) })
	}
	var sum quality.Summary
	var out bytes.Buffer
	if rerr == nil && derr == nil {
		r.summarize = tr.timed("summarize", req, root, func() { sum = quality.Summarize(g, r.res.Labels) })
		r.encode = tr.timed("encode", req, root, func() {
			for v, c := range r.res.Labels {
				fmt.Fprintf(&out, "%d %d\n", v, c)
			}
		})
	}
	r.total = tr.end(root)

	runtime.ReadMemStats(&after)
	r.alloc = after.TotalAlloc - before.TotalAlloc
	switch {
	case rerr != nil:
		return nil, fmt.Errorf("read binary: %w", rerr)
	case derr != nil:
		return nil, fmt.Errorf("detect: %w", derr)
	}
	r.n, r.q = g.NumVertices(), sum.Modularity
	return r, checkOutput(r.res, r.n, r.q, w.floor)
}

// checkOutput is the output oracle: a label for every vertex, labels dense
// in [0, Communities), and modularity at or above the workload's floor.
func checkOutput(res *engine.Result, n int, q, floor float64) error {
	if len(res.Labels) != n {
		return fmt.Errorf("%d labels for %d vertices", len(res.Labels), n)
	}
	seen := make([]bool, res.Communities)
	used := 0
	for v, c := range res.Labels {
		if int(c) >= res.Communities {
			return fmt.Errorf("vertex %d has label %d, want < %d", v, c, res.Communities)
		}
		if !seen[c] {
			seen[c] = true
			used++
		}
	}
	if used != res.Communities {
		return fmt.Errorf("labels use %d of [0, %d)", used, res.Communities)
	}
	return checkModularity(q, floor)
}

func checkModularity(q, floor float64) error {
	if q < floor {
		return fmt.Errorf("modularity %.4f below the floor %.2f", q, floor)
	}
	return nil
}
