package graph

import (
	"errors"
	"io"
	"os"
	"path/filepath"
)

// Formats names the graph-file formats ReadFile and WriteFile choose
// between by file extension.
const Formats = ".mtx Matrix Market, .bin/.nlpg binary, .graph/.metis METIS, otherwise edge list"

// codec is one on-disk graph format as a stream reader and writer.
type codec struct {
	read  func(io.Reader) (*CSR, error)
	write func(io.Writer, *CSR) error
}

// codecs maps a file extension to its format (see Formats).
var codecs = map[string]codec{
	".mtx":   {ReadMatrixMarket, WriteMatrixMarket},
	".bin":   {ReadBinary, WriteBinary},
	".nlpg":  {ReadBinary, WriteBinary},
	".graph": {ReadMETIS, WriteMETIS},
	".metis": {ReadMETIS, WriteMETIS},
}

// edgeList is the format of every extension codecs does not name.
var edgeList = codec{
	read:  func(r io.Reader) (*CSR, error) { return ReadEdgeList(r, 0, DefaultBuildOptions()) },
	write: WriteEdgeList,
}

func codecFor(path string) codec {
	if c, ok := codecs[filepath.Ext(path)]; ok {
		return c
	}
	return edgeList
}

// ReadFile loads a graph from path in the format its extension names
// (Formats). The codec reads the *os.File itself, so ReadBinary sizes its
// arrays against the file's length.
func ReadFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return codecFor(path).read(f)
}

// WriteFile creates or truncates path and writes g to it in the format its
// extension names (Formats).
func WriteFile(path string, g *CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(codecFor(path).write(f, g), f.Close())
}
