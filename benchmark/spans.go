package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer of the program, timed
// from outside. The benchmark times every layer call through spans, so a
// span's duration is the sample a metric is computed from; the traced run
// also writes them out.
type span struct {
	Run string `json:"run"`
	// Req identifies the request (a one-shot rep, a job, a set-up or a
	// reference call) the span belongs to; spans of one request share it.
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartMS and EndMS are milliseconds since the run began.
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

func (s span) dur() time.Duration {
	return time.Duration((s.EndMS - s.StartMS) * float64(time.Millisecond))
}

// tracer keeps a run's spans in memory. It is safe for concurrent use: the
// serving loop's clients record spans from their own goroutines.
type tracer struct {
	run    string
	origin time.Time

	mu    sync.Mutex
	spans []span
	reqs  int
}

func newTracer(run string) *tracer {
	return &tracer{run: run, origin: time.Now()}
}

// req returns a fresh request id.
func (t *tracer) req() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span named name under parent (0 for a root) and returns its
// id.
func (t *tracer) begin(name string, req, parent int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Run: t.run, Req: req, ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartMS: ms(now), EndMS: ms(now),
	})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndMS = ms(now)
	return s.dur()
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(name string, req, parent int, f func()) time.Duration {
	id := t.begin(name, req, parent)
	f()
	return t.end(id)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover. Children of one span
// never overlap (each request runs its layer calls one after another), so the
// covered part is the children's summed duration.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += s.dur()
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			self[t.spans[s.Parent-1].Name] -= s.dur()
		}
	}
	return self
}

// printSelfTimes writes the self-time table, largest first.
func (t *tracer) printSelfTimes(w io.Writer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Fprintf(w, "  self time by span:\n")
	for _, n := range names {
		fmt.Fprintf(w, "    %-14s %10.1f ms\n", n, ms(self[n]))
	}
}

// writeJSONL writes one span per line to path, creating its directory.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
