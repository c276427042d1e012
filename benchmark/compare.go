package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords reads the untraced records of a -json file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace == 0 {
			out = append(out, rec)
		}
	}
	return out, sc.Err()
}

// verdict is how set B's median compares with set A's.
type verdict string

const (
	agree      verdict = "ok"
	worse      verdict = "WORSE"
	unresolved verdict = "UNRESOLVED"
)

// judge compares the run values of one metric in two sets. B is worse when
// its median is worse than A's by more than bound (a share of A's median),
// in the metric's direction. When either set's spread is wider than the
// bound the sets cannot tell a regression from noise: the result is
// unresolved, unless every run of B reads better than every run of A.
func judge(m metricSpec, a, b []float64) verdict {
	ma, mb := median(a), median(b)
	change := (mb - ma) / ma
	if m.Better == "higher" {
		change = -change
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		if allBetter(m, a, b) {
			return agree
		}
		return unresolved
	}
	if change > m.Bound {
		return worse
	}
	return agree
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(m metricSpec, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians and IQRs and the verdict. It reports whether the sets agree: no
// metric is worse or missing. An unresolved metric is printed and counted
// but does not decide: its sets are too noisy to call either way.
func compareSets(spec *benchSpec, a, b []record, out io.Writer) bool {
	group := func(recs []record) map[string]map[string][]float64 {
		g := map[string]map[string][]float64{}
		for _, rec := range recs {
			if g[rec.Workload] == nil {
				g[rec.Workload] = map[string][]float64{}
			}
			for name, v := range rec.Metrics {
				g[rec.Workload][name] = append(g[rec.Workload][name], v.Value)
			}
		}
		return g
	}
	ga, gb := group(a), group(b)
	seen := map[string]bool{}
	var names []string
	for _, g := range []map[string]map[string][]float64{ga, gb} {
		for wl := range g {
			if !seen[wl] {
				seen[wl] = true
				names = append(names, wl)
			}
		}
	}
	sort.Strings(names)
	ok := len(names) > 0
	nUnresolved := 0
	fmt.Fprintf(out, "%-15s %-15s %12s %10s %12s %10s %6s  %s\n",
		"workload", "metric", "A median", "A IQR", "B median", "B IQR", "bound", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			va, vb := ga[wl][m.Name], gb[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-15s %-15s missing from a set\n", wl, m.Name)
				ok = false
				continue
			}
			v := judge(m, va, vb)
			switch v {
			case worse:
				ok = false
			case unresolved:
				nUnresolved++
			}
			qa1, _, qa3 := quartiles(va)
			qb1, _, qb3 := quartiles(vb)
			fmt.Fprintf(out, "%-15s %-15s %12.6g %10.3g %12.6g %10.3g %5.0f%%  %s (n=%d/%d)\n",
				wl, m.Name, median(va), qa3-qa1, median(vb), qb3-qb1, 100*m.Bound, v, len(va), len(vb))
		}
	}
	fmt.Fprintf(out, "agree: %v (%d unresolved)\n", ok, nUnresolved)
	return ok
}
