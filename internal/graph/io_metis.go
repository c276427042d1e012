package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// METIS graph format support — the interchange format of the graph
// partitioning ecosystem the paper's conclusion targets (PuLP, KaHIP, METIS
// itself). Header: "n m [fmt [ncon]]" where m is the undirected edge count;
// line i lists vertex i's neighbours (1-indexed), optionally preceded by
// vertex weights and interleaved with edge weights depending on fmt.
// Supported fmt values: 0/omitted (unweighted) and 1 (edge weights).

// ReadMETIS parses a METIS graph file.
func ReadMETIS(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	// Header: skip comments ('%').
	var header []string
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '%' {
			continue
		}
		header = strings.Fields(text)
		break
	}
	if header == nil {
		return nil, fmt.Errorf("graph: metis: missing header")
	}
	if len(header) < 2 || len(header) > 4 {
		return nil, fmt.Errorf("graph: metis: bad header %v", header)
	}
	n, err := strconv.Atoi(header[0])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("graph: metis: bad vertex count %q", header[0])
	}
	m, err := strconv.ParseInt(header[1], 10, 64)
	if err != nil || m < 0 {
		return nil, fmt.Errorf("graph: metis: bad edge count %q", header[1])
	}
	if n > MaxVertices || m > int64(MaxVertices)*64 {
		return nil, fmt.Errorf("graph: metis: implausible sizes n=%d m=%d (MaxVertices=%d)", n, m, MaxVertices)
	}
	weighted := false
	if len(header) >= 3 {
		switch header[2] {
		case "0", "00", "000":
			// unweighted
		case "1", "01", "001":
			weighted = true
		default:
			return nil, fmt.Errorf("graph: metis: unsupported fmt %q (want 0 or 1)", header[2])
		}
	}

	// The capacity hint is clamped: the header is untrusted until the
	// adjacency lines actually arrive.
	hint := 2 * m
	if hint > 1<<20 {
		hint = 1 << 20
	}
	b := NewBuilder(int(hint))
	v := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text != "" && text[0] == '%' {
			continue
		}
		if v >= n {
			if text == "" {
				continue
			}
			return nil, fmt.Errorf("graph: metis line %d: more adjacency lines than vertices", line)
		}
		fields := strings.Fields(text)
		step := 1
		if weighted {
			step = 2
		}
		if weighted && len(fields)%2 != 0 {
			return nil, fmt.Errorf("graph: metis line %d: odd field count with edge weights", line)
		}
		for i := 0; i < len(fields); i += step {
			u, err := strconv.ParseUint(fields[i], 10, 32)
			if err != nil || u == 0 || int(u) > n {
				return nil, fmt.Errorf("graph: metis line %d: bad neighbour %q", line, fields[i])
			}
			w := float32(1)
			if weighted {
				wf, err := strconv.ParseFloat(fields[i+1], 32)
				if err != nil {
					return nil, fmt.Errorf("graph: metis line %d: bad weight %q", line, fields[i+1])
				}
				w = float32(wf)
			}
			// METIS lists each undirected edge in both endpoints' lines;
			// record only the canonical direction and let the builder
			// symmetrize, so weights are not doubled.
			if uint32(v) <= uint32(u-1) {
				b.AddEdge(Vertex(v), Vertex(u-1), w)
			}
		}
		v++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: metis: %w", err)
	}
	if v != n {
		return nil, fmt.Errorf("graph: metis: %d adjacency lines for %d vertices", v, n)
	}
	g, err := b.Build(n, DefaultBuildOptions())
	if err != nil {
		return nil, err
	}
	if g.NumEdges() != m {
		return nil, fmt.Errorf("graph: metis: header promised %d edges, found %d", m, g.NumEdges())
	}
	return g, nil
}

// WriteMETIS writes g in METIS format with edge weights (fmt 001). Self
// loops cannot be represented and are rejected.
func WriteMETIS(w io.Writer, g *CSR) error {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.HasEdge(Vertex(v), Vertex(v)) {
			return fmt.Errorf("graph: metis: self loop at vertex %d not representable", v)
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d 001\n", n, g.NumEdges()); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		ts, ws := g.Neighbors(Vertex(v))
		for k, u := range ts {
			if k > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "%d %g", u+1, ws[k]); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
