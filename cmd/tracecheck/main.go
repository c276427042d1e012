// Command tracecheck validates a JSONL span export (the -trace-out format,
// one trace.SpanData object per line): it fails unless the file is
// schema-clean and contains at least one fully connected trace — a
// parentless root span with a detect descendant, an iteration descendant,
// and a kernel-launch descendant, each reachable from the root through
// recorded parent links. The checks are trace.ReadJSONL and
// trace.ConnectedTrace, which the CLI end-to-end tests call directly.
//
// Usage:
//
//	tracecheck [-root run] spans.jsonl
//
// Exit status 0 when the file passes, 1 with a diagnostic on stderr when it
// does not.
package main

import (
	"flag"
	"fmt"
	"os"

	"nulpa/internal/trace"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracecheck: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	rootName := flag.String("root", "run", "required name of the trace's root span")
	flag.Parse()
	if flag.NArg() != 1 {
		fail("usage: tracecheck [-root name] spans.jsonl")
	}
	path := flag.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	spans, err := trace.ReadJSONL(f)
	if err != nil {
		fail("%s: %v", path, err)
	}
	id, err := trace.ConnectedTrace(spans, *rootName)
	if err != nil {
		fail("%s: %v", path, err)
	}
	fmt.Printf("tracecheck: ok — %d spans, trace %s connects %s → detect → iteration → kernel\n",
		len(spans), id, *rootName)
}
