package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// ReadJSONL parses a JSONL span export (the -trace-out format, one SpanData
// object per line) and checks every span's schema: no unknown fields,
// 16-hex-digit ids, a name, a start time, a non-negative duration and named
// events. Blank lines are skipped; an export with no spans is an error.
func ReadJSONL(r io.Reader) ([]SpanData, error) {
	var spans []SpanData
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var d SpanData
		dec := json.NewDecoder(strings.NewReader(sc.Text()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&d); err != nil {
			return nil, fmt.Errorf("line %d: not a span object: %v", line, err)
		}
		if err := checkSpan(d); err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		spans = append(spans, d)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("no spans")
	}
	return spans, nil
}

// checkSpan is one exported span's schema check.
func checkSpan(d SpanData) error {
	if _, err := ParseTraceID(d.Trace); err != nil {
		return fmt.Errorf("bad trace id %q", d.Trace)
	}
	if len(d.Span) != 16 {
		return fmt.Errorf("bad span id %q", d.Span)
	}
	if d.Parent != "" && len(d.Parent) != 16 {
		return fmt.Errorf("bad parent id %q", d.Parent)
	}
	if d.Name == "" {
		return fmt.Errorf("span has no name")
	}
	if d.Start.IsZero() {
		return fmt.Errorf("span has no start time")
	}
	if d.DurationUS < 0 {
		return fmt.Errorf("negative duration %g", d.DurationUS)
	}
	for _, ev := range d.Events {
		if ev.Name == "" {
			return fmt.Errorf("event has no name")
		}
	}
	return nil
}

// ConnectedTrace returns the id of a trace in spans that links a parentless
// span named root to a "detect" descendant, an "iteration" descendant of
// that, and a kernel-launch ("kernel:…") descendant of that, through the
// recorded parent ids. BuildTree treats orphans as extra roots, so a broken
// parent link shows up as the chain not resolving. The search is depth
// first: it accepts a kernel nested under intermediate spans (a sharded
// run's shard-iteration) as readily as a direct child.
func ConnectedTrace(spans []SpanData, root string) (string, error) {
	byTrace := map[string][]SpanData{}
	for _, d := range spans {
		byTrace[d.Trace] = append(byTrace[d.Trace], d)
	}
	named := func(name string) func(string) bool {
		return func(n string) bool { return n == name }
	}
	for id, ts := range byTrace {
		for _, r := range BuildTree(ts) {
			if r.Name != root || r.Parent != "" {
				continue
			}
			detect := find(r.Children, named("detect"))
			if detect == nil {
				continue
			}
			iter := find(detect.Children, named("iteration"))
			if iter == nil {
				continue
			}
			if find(iter.Children, func(n string) bool { return strings.HasPrefix(n, "kernel:") }) != nil {
				return id, nil
			}
		}
	}
	return "", fmt.Errorf("%d schema-clean spans, but no trace connects %s → detect → iteration → kernel", len(spans), root)
}

// find walks nodes depth-first for a span whose name satisfies match.
func find(nodes []*Node, match func(string) bool) *Node {
	for _, n := range nodes {
		if match(n.Name) {
			return n
		}
		if hit := find(n.Children, match); hit != nil {
			return hit
		}
	}
	return nil
}
