package graph

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	in := `# comment
% another comment
0 1
1 2 2.5

2 0 1
`
	g, err := ReadEdgeList(strings.NewReader(in), 0, DefaultBuildOptions())
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumVertices() != 3 || g.NumArcs() != 6 {
		t.Fatalf("got n=%d arcs=%d, want 3/6", g.NumVertices(), g.NumArcs())
	}
	if w, _ := g.EdgeWeight(1, 2); w != 2.5 {
		t.Errorf("EdgeWeight(1,2) = %g, want 2.5", w)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 1 {
		t.Errorf("EdgeWeight(0,1) = %g, want 1 (default)", w)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"one field", "0\n"},
		{"bad source", "x 1\n"},
		{"bad target", "1 y\n"},
		{"bad weight", "0 1 nope\n"},
		{"negative id", "-1 2\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tc.in), 0, DefaultBuildOptions()); err == nil {
				t.Errorf("accepted malformed input %q", tc.in)
			}
		})
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := randomGraph(t, 40, 120, 3)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	back, err := ReadEdgeList(&buf, g.NumVertices(), DefaultBuildOptions())
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	assertEqualGraphs(t, g, back)
}

func TestReadMatrixMarketPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
% SuiteSparse-style comment
3 3 3
2 1
3 1
3 2
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadMatrixMarket: %v", err)
	}
	if g.NumVertices() != 3 || g.NumArcs() != 6 {
		t.Fatalf("got n=%d arcs=%d, want 3/6", g.NumVertices(), g.NumArcs())
	}
	if w, _ := g.EdgeWeight(0, 1); w != 1 {
		t.Errorf("pattern weight = %g, want 1", w)
	}
}

func TestReadMatrixMarketReal(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
2 2 1
1 2 3.5
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadMatrixMarket: %v", err)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 3.5 {
		t.Errorf("EdgeWeight = %g, want 3.5", w)
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"bad magic", "%%NotMM matrix coordinate real general\n1 1 0\n"},
		{"dense", "%%MatrixMarket matrix array real general\n1 1\n"},
		{"bad field", "%%MatrixMarket matrix coordinate complex general\n1 1 0\n"},
		{"bad symmetry", "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n"},
		{"missing size", "%%MatrixMarket matrix coordinate real general\n"},
		{"zero index", "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n"},
		{"count mismatch", "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 2 1.0\n"},
		{"bad value", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 xyz\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadMatrixMarket(strings.NewReader(tc.in)); err == nil {
				t.Errorf("accepted malformed input")
			}
		})
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	g := randomGraph(t, 30, 90, 11)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatalf("WriteMatrixMarket: %v", err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatalf("ReadMatrixMarket: %v", err)
	}
	assertEqualGraphs(t, g, back)
}

func TestBinaryRoundTrip(t *testing.T) {
	g := randomGraph(t, 100, 400, 5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	assertEqualGraphs(t, g, back)
	if back.TotalWeight() != g.TotalWeight() {
		t.Errorf("TotalWeight %g != %g", back.TotalWeight(), g.TotalWeight())
	}
}

// TestWriteBinaryGrowsOnce checks that encoding into a bytes.Buffer grows
// it once, to the file's size give or take a page, not by doubling past it.
func TestWriteBinaryGrowsOnce(t *testing.T) {
	g := randomGraph(t, 20000, 60000, 3)
	size := headerBytes + 8*(g.NumVertices()+1) + 8*int(g.NumArcs())
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != size {
		t.Fatalf("wrote %d bytes, want %d", buf.Len(), size)
	}
	if buf.Cap() > size+8192 {
		t.Errorf("buffer capacity %d for a %d-byte file", buf.Cap(), size)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph at all......"))); err == nil {
		t.Error("ReadBinary accepted garbage")
	}
	if _, err := ReadBinary(bytes.NewReader([]byte("NL"))); err == nil {
		t.Error("ReadBinary accepted truncated magic")
	}
}

func TestBinaryRejectsTruncated(t *testing.T) {
	g := randomGraph(t, 20, 60, 9)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	data := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("ReadBinary accepted truncated stream")
	}
}

// TestWriteBinaryFixedBytes pins the encoding of a small graph: the 28-byte
// header (magic, version, n, m as little-endian uint64s), then offsets,
// targets and weights.
func TestWriteBinaryFixedBytes(t *testing.T) {
	g, err := FromEdges([]Edge{{0, 1, 1}, {1, 2, 2.5}}, 3, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	const want = "4e4c5047" + "0100000000000000" + "0300000000000000" + "0400000000000000" +
		"0000000000000000" + "0100000000000000" + "0300000000000000" + "0400000000000000" +
		"01000000" + "00000000" + "02000000" + "01000000" +
		"0000803f" + "0000803f" + "00002040" + "00002040"
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("encoding\n got %s\nwant %s", got, want)
	}
}

// plainReader hides every method of its reader but Read, so ReadBinary
// cannot learn the stream's length.
type plainReader struct{ r io.Reader }

func (p plainReader) Read(b []byte) (int, error) { return p.r.Read(b) }

// TestBinaryRoundTripUnsized reads a graph whose arrays span many decode
// chunks through a stream of unknown length (arrays grown by doubling) and
// through a file (sized by Stat), and checks that a truncated file fails.
func TestBinaryRoundTripUnsized(t *testing.T) {
	g := randomGraph(t, 20000, 60000, 3)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(plainReader{bytes.NewReader(buf.Bytes())})
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	assertEqualGraphs(t, g, back)

	path := filepath.Join(t.TempDir(), "g.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if back, err = ReadFile(path); err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	assertEqualGraphs(t, g, back)
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("ReadFile accepted a binary file one byte short")
	}
}

// TestReadBinaryHostileHeaderAllocation feeds a 40-byte stream whose header
// claims 2^27 vertices: ReadBinary must fail having allocated under 2 MB,
// whether it can see the stream's length (bytes.Reader) or not.
func TestReadBinaryHostileHeaderAllocation(t *testing.T) {
	in := make([]byte, 40)
	copy(in, "NLPG")
	binary.LittleEndian.PutUint64(in[4:], 1)
	binary.LittleEndian.PutUint64(in[12:], 1<<27)
	binary.LittleEndian.PutUint64(in[20:], 0)
	for name, r := range map[string]func() io.Reader{
		"bytes.Reader": func() io.Reader { return bytes.NewReader(in) },
		"plain reader": func() io.Reader { return plainReader{bytes.NewReader(in)} },
	} {
		r := r()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(r)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: ReadBinary accepted a 40-byte stream claiming 2^27 vertices", name)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 2<<20 {
			t.Errorf("%s: ReadBinary allocated %d bytes before failing, want < 2 MB", name, d)
		}
	}
}

// BenchmarkReadBinary decodes a 100k-vertex, 1.6M-arc graph (13 MB) from
// memory, as the benchmark's ingest and the CLI's binary loader do.
func BenchmarkReadBinary(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 100000
	edges := make([]Edge, 8*n)
	for i := range edges {
		edges[i] = Edge{Vertex(rng.Intn(n)), Vertex(rng.Intn(n)), 1}
	}
	g, err := FromEdges(edges, n, DefaultBuildOptions())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadFileDispatch round-trips a graph through WriteFile and ReadFile
// under every extension of the format table and one it does not name (an
// edge list), checks that each file starts the way its format does, and
// that Formats names every extension.
func TestReadFileDispatch(t *testing.T) {
	g := randomGraph(t, 15, 40, 2)
	dir := t.TempDir()
	prefix := map[string]string{
		".txt": "# Nodes:", ".mtx": "%%MatrixMarket", ".bin": "NLPG", ".nlpg": "NLPG",
		".graph": "15 ", ".metis": "15 ",
	}
	for ext := range codecs {
		if !strings.Contains(Formats, ext) {
			t.Errorf("Formats %q does not name %s", Formats, ext)
		}
		if _, ok := prefix[ext]; !ok {
			t.Errorf("no expected file prefix for %s", ext)
		}
	}
	for ext, want := range prefix {
		p := filepath.Join(dir, "g"+ext)
		if err := WriteFile(p, g); err != nil {
			t.Fatalf("WriteFile(%s): %v", p, err)
		}
		if data, err := os.ReadFile(p); err != nil || !strings.HasPrefix(string(data), want) {
			t.Errorf("%s does not start with %q (err %v)", p, want, err)
		}
		back, err := ReadFile(p)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", p, err)
		}
		assertEqualGraphs(t, g, back)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("ReadFile accepted missing file")
	}
	if err := WriteFile(filepath.Join(dir, "no", "such", "dir.bin"), g); err == nil {
		t.Error("WriteFile created a file in a missing directory")
	}
}

// randomGraph builds a connected-ish random undirected graph with integer
// weights for round-trip testing.
func randomGraph(t *testing.T, n, m int, seed int64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m+n)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{Vertex(rng.Intn(i)), Vertex(i), float32(rng.Intn(9) + 1)})
	}
	for i := 0; i < m; i++ {
		u, v := Vertex(rng.Intn(n)), Vertex(rng.Intn(n))
		edges = append(edges, Edge{u, v, float32(rng.Intn(9) + 1)})
	}
	g, err := FromEdges(edges, n, DefaultBuildOptions())
	if err != nil {
		t.Fatalf("randomGraph: %v", err)
	}
	return g
}

func assertEqualGraphs(t *testing.T, a, b *CSR) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() {
		t.Fatalf("vertex count %d != %d", a.NumVertices(), b.NumVertices())
	}
	if a.NumArcs() != b.NumArcs() {
		t.Fatalf("arc count %d != %d", a.NumArcs(), b.NumArcs())
	}
	for u := 0; u < a.NumVertices(); u++ {
		ta, wa := a.Neighbors(Vertex(u))
		tb, wb := b.Neighbors(Vertex(u))
		if len(ta) != len(tb) {
			t.Fatalf("vertex %d degree %d != %d", u, len(ta), len(tb))
		}
		for k := range ta {
			if ta[k] != tb[k] {
				t.Fatalf("vertex %d: neighbor %d != %d", u, ta[k], tb[k])
			}
			if wa[k] != wb[k] {
				t.Fatalf("vertex %d: weight %g != %g", u, wa[k], wb[k])
			}
		}
	}
}

func TestMETISRoundTrip(t *testing.T) {
	g := randomGraph(t, 30, 90, 21)
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatalf("WriteMETIS: %v", err)
	}
	back, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatalf("ReadMETIS: %v", err)
	}
	assertEqualGraphs(t, g, back)
}

func TestReadMETISUnweighted(t *testing.T) {
	in := `% triangle plus pendant
4 4
2 3
1 3
1 2 4
3
`
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadMETIS: %v", err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if w, _ := g.EdgeWeight(0, 1); w != 1 {
		t.Errorf("weight = %g", w)
	}
	if !g.HasEdge(2, 3) || !g.HasEdge(3, 2) {
		t.Error("pendant edge missing")
	}
}

func TestReadMETISErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"bad header", "x y\n"},
		{"bad fmt", "2 1 011\n2\n1\n"},
		{"neighbour zero", "2 1\n0\n1\n"},
		{"neighbour range", "2 1\n5\n1\n"},
		{"too few lines", "3 2\n2\n1\n"},
		{"too many lines", "1 0\n\n\n2\n"},
		{"edge count mismatch", "3 5\n2\n1 3\n2\n"},
		{"odd weighted fields", "2 1 1\n2 1 3\n1 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadMETIS(strings.NewReader(tc.in)); err == nil {
				t.Errorf("accepted malformed input")
			}
		})
	}
}

func TestWriteMETISRejectsSelfLoops(t *testing.T) {
	opts := BuildOptions{Symmetrize: true, DropSelfLoops: false, SumDuplicates: true}
	g, err := FromEdges([]Edge{{0, 0, 1}, {0, 1, 1}}, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err == nil {
		t.Error("self loop accepted")
	}
}
