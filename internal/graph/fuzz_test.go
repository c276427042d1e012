package graph

import (
	"bytes"
	"strings"
	"testing"
)

// Fuzz targets for the text parsers: no input may panic, and any input that
// parses must yield a structurally valid graph. Run with
// `go test -fuzz=FuzzReadEdgeList ./internal/graph/` for continuous fuzzing;
// under plain `go test` the seed corpus below acts as a robustness suite.
//
// MaxVertices is lowered inside each target so the fuzzer explores parser
// logic instead of tripping allocator limits with giant-but-legal headers.

func boundVertices(t *testing.T) {
	old := MaxVertices
	MaxVertices = 1 << 16
	t.Cleanup(func() { MaxVertices = old })
}

func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2 2.5\n")
	f.Add("# comment\n% other\n\n0 0\n")
	f.Add("4294967295 0\n")
	f.Add("1 2 -3.5\n")
	f.Add("9999999999999999999 1\n")
	f.Add("0 1 1e300\n")
	f.Add("a b c\n")
	f.Add("# Nodes: 9 Edges: 1\n0 1 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		boundVertices(t)
		g, err := ReadEdgeList(strings.NewReader(in), 0, DefaultBuildOptions())
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v\ninput: %q", err, in)
		}
	})
}

func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.5\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n2 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
	f.Add("%%MatrixMarket\n")
	f.Add("%%MatrixMarket matrix coordinate integer symmetric\n1 1 1\n1 1 5\n")
	f.Fuzz(func(t *testing.T, in string) {
		boundVertices(t)
		g, err := ReadMatrixMarket(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v\ninput: %q", err, in)
		}
	})
}

func FuzzReadMETIS(f *testing.F) {
	f.Add("2 1\n2\n1\n")
	f.Add("4 4\n2 3\n1 3\n1 2 4\n3\n")
	f.Add("2 1 1\n2 5\n1 5\n")
	f.Add("% comment\n1 0\n\n")
	f.Add("0 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		boundVertices(t)
		g, err := ReadMETIS(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v\ninput: %q", err, in)
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	g, _ := FromEdges([]Edge{{0, 1, 1}, {1, 2, 2}}, 3, DefaultBuildOptions())
	_ = WriteBinary(&buf, g)
	f.Add(buf.Bytes())
	f.Add([]byte("NLPG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		boundVertices(t)
		g, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		// Binary format carries no symmetry guarantee by itself, but basic
		// structure must hold.
		if g.NumVertices() < 0 || int64(len(g.Targets)) != g.NumArcs() {
			t.Fatalf("parsed binary graph inconsistent")
		}
	})
}
