package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Binary graph format: a fast container for generated datasets so benchmark
// runs don't pay text-parsing time.
//
//	magic   [4]byte  "NLPG"
//	version uint64   1
//	n       uint64   vertex count
//	m       uint64   arc count
//	offsets [n+1]int64
//	targets [m]uint32
//	weights [m]float32
//
// All integers little-endian. Both directions stream the arrays through one
// reused chunk of binaryChunk bytes, so neither makes an encoded copy of the
// graph. ReadBinary decodes straight into the arrays it returns: when the
// remaining stream length is known (an in-memory reader's Len, a regular
// file's size past the current offset) it first checks that the header's n
// and m fit in it and then allocates each array once at its exact size;
// otherwise an array grows by doubling only as its bytes arrive, so a
// corrupt header cannot force a large allocation either way.

var binaryMagic = [4]byte{'N', 'L', 'P', 'G'}

const (
	binaryVersion = 1
	headerBytes   = 28
	// binaryChunk is the size of the reused encode/decode buffer.
	binaryChunk = 64 << 10
)

// WriteBinary serializes g in the repository's binary graph format. A
// writer with a Grow method (*bytes.Buffer) is first grown once by the
// file's exact size, so an in-memory encode does not double its way there.
func WriteBinary(w io.Writer, g *CSR) error {
	if gw, ok := w.(interface{ Grow(int) }); ok {
		gw.Grow(headerBytes + 8*len(g.Offsets) + 4*len(g.Targets) + 4*len(g.Weights))
	}
	buf := make([]byte, binaryChunk)
	copy(buf, binaryMagic[:])
	binary.LittleEndian.PutUint64(buf[4:], binaryVersion)
	binary.LittleEndian.PutUint64(buf[12:], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(buf[20:], uint64(g.NumArcs()))
	if _, err := w.Write(buf[:headerBytes]); err != nil {
		return err
	}
	if err := writeChunked(w, buf, g.Offsets, 8, func(b []byte, vs []int64) {
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
	}); err != nil {
		return err
	}
	if err := writeChunked(w, buf, g.Targets, 4, func(b []byte, vs []Vertex) {
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
	}); err != nil {
		return err
	}
	return writeChunked(w, buf, g.Weights, 4, func(b []byte, vs []float32) {
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
	})
}

// writeChunked encodes vals, size bytes each, into buf one buffer's worth
// at a time and writes each to w.
func writeChunked[T int64 | Vertex | float32](w io.Writer, buf []byte, vals []T, size int, encode func([]byte, []T)) error {
	per := len(buf) / size
	for len(vals) > 0 {
		k := min(len(vals), per)
		encode(buf, vals[:k])
		if _, err := w.Write(buf[:k*size]); err != nil {
			return err
		}
		vals = vals[k:]
	}
	return nil
}

// ReadBinary deserializes a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*CSR, error) {
	buf := make([]byte, binaryChunk)
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, fmt.Errorf("graph: binary: reading magic: %w", err)
	}
	if [4]byte(buf[:4]) != binaryMagic {
		return nil, fmt.Errorf("graph: binary: bad magic %q", buf[:4])
	}
	if _, err := io.ReadFull(r, buf[4:headerBytes]); err != nil {
		return nil, fmt.Errorf("graph: binary: reading header: %w", err)
	}
	version := binary.LittleEndian.Uint64(buf[4:])
	n := binary.LittleEndian.Uint64(buf[12:])
	m := binary.LittleEndian.Uint64(buf[20:])
	if version != binaryVersion {
		return nil, fmt.Errorf("graph: binary: unsupported version %d", version)
	}
	if n > uint64(MaxVertices) || m > uint64(MaxVertices)*64 {
		return nil, fmt.Errorf("graph: binary: implausible sizes n=%d m=%d (MaxVertices=%d)", n, m, MaxVertices)
	}
	sized := false
	if rest, ok := remaining(r); ok {
		need := int64(n+1)*8 + int64(m)*8
		if rest < need {
			return nil, fmt.Errorf("graph: binary: header needs %d array bytes, stream holds %d: %w", need, rest, io.ErrUnexpectedEOF)
		}
		sized = true
	}
	g := &CSR{}
	var err error
	if g.Offsets, err = readChunked(r, buf, n+1, sized, 8, func(vs []int64, b []byte) {
		for i := range vs {
			vs[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}); err != nil {
		return nil, fmt.Errorf("graph: binary: reading offsets: %w", err)
	}
	if g.Targets, err = readChunked(r, buf, m, sized, 4, func(vs []Vertex, b []byte) {
		for i := range vs {
			vs[i] = Vertex(binary.LittleEndian.Uint32(b[4*i:]))
		}
	}); err != nil {
		return nil, fmt.Errorf("graph: binary: reading targets: %w", err)
	}
	if g.Weights, err = readChunked(r, buf, m, sized, 4, func(vs []float32, b []byte) {
		for i := range vs {
			vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
	}); err != nil {
		return nil, fmt.Errorf("graph: binary: reading weights: %w", err)
	}
	// Structural validation: the offsets must describe exactly the arrays
	// read, and every target must be a valid vertex. Without this a corrupt
	// stream would produce a graph that panics on first use.
	if g.Offsets[0] != 0 {
		return nil, fmt.Errorf("graph: binary: offsets[0] = %d, want 0", g.Offsets[0])
	}
	for i := 0; i < int(n); i++ {
		if g.Offsets[i+1] < g.Offsets[i] {
			return nil, fmt.Errorf("graph: binary: offsets not monotone at %d", i)
		}
	}
	if g.Offsets[n] != int64(m) {
		return nil, fmt.Errorf("graph: binary: offsets end at %d, want %d arcs", g.Offsets[n], m)
	}
	for _, t := range g.Targets {
		if uint64(t) >= n {
			return nil, fmt.Errorf("graph: binary: target %d out of range [0,%d)", t, n)
		}
	}
	g.RecomputeTotalWeight()
	return g, nil
}

// remaining reports how many bytes r has left when that is known without
// reading: an in-memory reader's Len, or a regular file's size past its
// current offset.
func remaining(r io.Reader) (int64, bool) {
	switch s := r.(type) {
	case interface{ Len() int }:
		return int64(s.Len()), true
	case *os.File:
		fi, err := s.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		off, err := s.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		return fi.Size() - off, true
	}
	return 0, false
}

// readChunked reads exactly count little-endian values of size bytes each,
// decoding them through buf straight into the returned slice. When sized,
// the caller has checked that the stream holds the values, and the slice is
// allocated once at its exact length. Otherwise it starts at one buffer's
// worth and doubles only as bytes arrive, so a truncated or hostile stream
// fails before any large allocation and the values are copied at most once
// per doubling.
func readChunked[T int64 | Vertex | float32](r io.Reader, buf []byte, count uint64, sized bool, size int, decode func([]T, []byte)) ([]T, error) {
	per := uint64(len(buf) / size)
	var out []T
	if sized {
		out = make([]T, 0, count)
	} else {
		out = make([]T, 0, min(count, per))
	}
	for uint64(len(out)) < count {
		k := min(count-uint64(len(out)), per)
		b := buf[:int(k)*size]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		if uint64(cap(out)-len(out)) < k {
			out = append(make([]T, 0, min(count, 2*uint64(cap(out)))), out...)
		}
		at := len(out)
		out = out[:at+int(k)]
		decode(out[at:], b)
	}
	return out, nil
}
