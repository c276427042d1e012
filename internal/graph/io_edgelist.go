package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list: one "u v" or "u v w"
// per line. Lines starting with '#' or '%' are comments. Vertex ids are
// non-negative integers; the graph is sized by the largest of n, the N of a
// SNAP-style "# Nodes: N Edges: M" comment (WriteEdgeList's first line, so
// trailing isolated vertices survive a round trip) and the largest id seen
// plus one. The result honours opt (symmetrization, dedup, self loops).
func ReadEdgeList(r io.Reader, n int, opt BuildOptions) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	b := NewBuilder(1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			if nodes, ok := nodesHeader(text); ok {
				n = max(n, nodes)
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: edge list line %d: want 2 or 3 fields, got %d", line, len(fields))
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: bad source %q: %v", line, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: bad target %q: %v", line, fields[1], err)
		}
		w := float32(1)
		if len(fields) >= 3 {
			wf, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: edge list line %d: bad weight %q: %v", line, fields[2], err)
			}
			w = float32(wf)
		}
		b.AddEdge(Vertex(u), Vertex(v), w)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return b.Build(n, opt)
}

// nodesHeader returns N from a "# Nodes: N ..." comment line.
func nodesHeader(comment string) (int, bool) {
	fields := strings.Fields(comment)
	if len(fields) < 3 || fields[0] != "#" || fields[1] != "Nodes:" {
		return 0, false
	}
	nodes, err := strconv.ParseUint(fields[2], 10, 32)
	return int(nodes), err == nil
}

// WriteEdgeList writes g as a "# Nodes: N Edges: M" header, which keeps
// the vertex count, and then "u v w" lines, emitting each undirected edge
// once (u <= v).
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	n := g.NumVertices()
	edges := 0
	for u := 0; u < n; u++ {
		ts, _ := g.Neighbors(Vertex(u))
		for _, v := range ts {
			if Vertex(u) <= v {
				edges++
			}
		}
	}
	if _, err := fmt.Fprintf(bw, "# Nodes: %d Edges: %d\n", n, edges); err != nil {
		return err
	}
	for u := 0; u < n; u++ {
		ts, ws := g.Neighbors(Vertex(u))
		for k, v := range ts {
			if Vertex(u) > v {
				continue
			}
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", u, v, ws[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
