package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadMatrixMarket parses a Matrix Market "coordinate" file — the format used
// by the SuiteSparse Matrix Collection, the source of the paper's dataset.
//
// Supported headers: object "matrix", format "coordinate", field "real",
// "integer", or "pattern", symmetry "general" or "symmetric". Entries are
// 1-indexed (i, j[, w]); pattern matrices get unit weights. The result is
// always symmetrized (reverse arcs added) per the paper's preparation, with
// self loops dropped and duplicates merged.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("graph: mtx: reading header: %w", err)
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) < 4 || fields[0] != "%%matrixmarket" {
		return nil, fmt.Errorf("graph: mtx: bad header %q", strings.TrimSpace(header))
	}
	object, format := fields[1], fields[2]
	field := fields[3]
	symmetry := "general"
	if len(fields) >= 5 {
		symmetry = fields[4]
	}
	if object != "matrix" || format != "coordinate" {
		return nil, fmt.Errorf("graph: mtx: unsupported %s/%s (want matrix/coordinate)", object, format)
	}
	switch field {
	case "real", "integer", "pattern", "double":
	default:
		return nil, fmt.Errorf("graph: mtx: unsupported field %q", field)
	}
	switch symmetry {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("graph: mtx: unsupported symmetry %q", symmetry)
	}
	pattern := field == "pattern"

	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var rows, cols int
	var nnz int64
	sized := false
	b := NewBuilder(1024)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '%' {
			continue
		}
		f := strings.Fields(text)
		if !sized {
			if len(f) != 3 {
				return nil, fmt.Errorf("graph: mtx line %d: bad size line %q", line, text)
			}
			var err error
			if rows, err = strconv.Atoi(f[0]); err != nil {
				return nil, fmt.Errorf("graph: mtx line %d: bad row count: %v", line, err)
			}
			if cols, err = strconv.Atoi(f[1]); err != nil {
				return nil, fmt.Errorf("graph: mtx line %d: bad column count: %v", line, err)
			}
			if nnz, err = strconv.ParseInt(f[2], 10, 64); err != nil {
				return nil, fmt.Errorf("graph: mtx line %d: bad entry count: %v", line, err)
			}
			sized = true
			continue
		}
		want := 3
		if pattern {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("graph: mtx line %d: want %d fields, got %d", line, want, len(f))
		}
		i, err := strconv.ParseUint(f[0], 10, 32)
		if err != nil || i == 0 {
			return nil, fmt.Errorf("graph: mtx line %d: bad row index %q", line, f[0])
		}
		j, err := strconv.ParseUint(f[1], 10, 32)
		if err != nil || j == 0 {
			return nil, fmt.Errorf("graph: mtx line %d: bad column index %q", line, f[1])
		}
		w := float32(1)
		if !pattern && len(f) >= 3 {
			wf, err := strconv.ParseFloat(f[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: mtx line %d: bad value %q", line, f[2])
			}
			w = float32(wf)
			if w == 0 {
				w = 1 // explicit zeros still denote structural edges in graph matrices
			}
			if w < 0 {
				w = -w // modularity assumes non-negative weights
			}
		}
		b.AddEdge(Vertex(i-1), Vertex(j-1), w)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: mtx: %w", err)
	}
	if !sized {
		return nil, fmt.Errorf("graph: mtx: missing size line")
	}
	if int64(b.NumEdges()) != nnz {
		return nil, fmt.Errorf("graph: mtx: header promised %d entries, found %d", nnz, b.NumEdges())
	}
	n := rows
	if cols > n {
		n = cols
	}
	return b.Build(n, DefaultBuildOptions())
}

// WriteMatrixMarket writes g as a symmetric real coordinate Matrix Market
// file, emitting each undirected edge once with i >= j (lower triangle),
// 1-indexed.
func WriteMatrixMarket(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	n := g.NumVertices()
	var cnt int64
	for u := 0; u < n; u++ {
		ts, _ := g.Neighbors(Vertex(u))
		for _, v := range ts {
			if v <= Vertex(u) {
				cnt++
			}
		}
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real symmetric\n%d %d %d\n", n, n, cnt); err != nil {
		return err
	}
	for u := 0; u < n; u++ {
		ts, ws := g.Neighbors(Vertex(u))
		for k, v := range ts {
			if v > Vertex(u) {
				continue
			}
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", u+1, v+1, ws[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
