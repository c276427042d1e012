// Package nulpabench holds the top-level testing.B benchmarks, one per
// table and figure of the paper's evaluation. Each benchmark times the same
// code path the corresponding cmd/bench experiment runs, on the small-scale
// dataset stand-ins, and reports modularity as a custom metric where the
// figure is about quality. Regenerate the full tables with:
//
//	go run ./cmd/bench -experiment all -scale medium -reps 3
package nulpabench

import (
	"fmt"
	"testing"

	"nulpa/internal/bench"
	"nulpa/internal/engine"
	"nulpa/internal/flpa"
	"nulpa/internal/graph"
	"nulpa/internal/gunrock"
	"nulpa/internal/gvelpa"
	"nulpa/internal/hashtable"
	"nulpa/internal/louvain"
	"nulpa/internal/nulpa"
	"nulpa/internal/plp"
	"nulpa/internal/quality"
)

// benchGraphs is the representative per-class subset used by the Go
// benchmarks (the full 13-graph sweep lives in cmd/bench).
var benchGraphs = []string{"indochina-2004", "com-Orkut", "asia_osm", "kmer_A2a"}

func eachGraph(b *testing.B, f func(b *testing.B, g *graph.CSR)) {
	for _, name := range benchGraphs {
		g := bench.Graph(name, bench.Small)
		b.Run(name, func(b *testing.B) {
			b.SetBytes(g.NumArcs() * 8) // arcs/sec proxy: 4B target + 4B weight
			f(b, g)
		})
	}
}

func runNuLPA(b *testing.B, g *graph.CSR, opt nulpa.Options) *nulpa.Result {
	b.Helper()
	var res *nulpa.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = nulpa.Detect(g, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(quality.Modularity(g, res.Labels), "modularity")
	return res
}

// BenchmarkFigSwapPrevention regenerates Figure 1's runtime axis: the three
// headline swap-mitigation configurations (unmitigated, the fastest CC, the
// paper's PL4).
func BenchmarkFigSwapPrevention(b *testing.B) {
	configs := []struct {
		name     string
		pickLess int
		cross    int
	}{{"none", 0, 0}, {"CC2", 0, 2}, {"PL4", 4, 0}, {"H-PL4-CC2", 4, 2}}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			eachGraph(b, func(b *testing.B, g *graph.CSR) {
				opt := nulpa.DefaultOptions()
				opt.Probing = hashtable.Double // the paper's setting for this sweep
				opt.PickLessEvery = c.pickLess
				opt.CrossCheckEvery = c.cross
				runNuLPA(b, g, opt)
			})
		})
	}
}

// BenchmarkFigProbing regenerates Figure 3: the four collision resolution
// strategies of the per-vertex hashtable.
func BenchmarkFigProbing(b *testing.B) {
	for _, pr := range []hashtable.Probing{hashtable.Linear, hashtable.Quadratic, hashtable.Double, hashtable.QuadraticDouble} {
		b.Run(pr.String(), func(b *testing.B) {
			eachGraph(b, func(b *testing.B, g *graph.CSR) {
				opt := nulpa.DefaultOptions()
				opt.Probing = pr
				runNuLPA(b, g, opt)
			})
		})
	}
}

// BenchmarkFigSwitchDegree regenerates Figure 4: the thread-per-vertex vs
// block-per-vertex switch degree sweep.
func BenchmarkFigSwitchDegree(b *testing.B) {
	for _, sd := range []int{2, 8, 32, 128, 256} {
		b.Run(fmt.Sprintf("switch-%d", sd), func(b *testing.B) {
			eachGraph(b, func(b *testing.B, g *graph.CSR) {
				opt := nulpa.DefaultOptions()
				opt.SwitchDegree = sd
				runNuLPA(b, g, opt)
			})
		})
	}
}

// BenchmarkFigValueType regenerates Figure 5: float32 vs float64 hashtable
// values.
func BenchmarkFigValueType(b *testing.B) {
	for _, k := range []hashtable.ValueKind{hashtable.Float32, hashtable.Float64} {
		b.Run(k.String(), func(b *testing.B) {
			eachGraph(b, func(b *testing.B, g *graph.CSR) {
				opt := nulpa.DefaultOptions()
				opt.ValueKind = k
				runNuLPA(b, g, opt)
			})
		})
	}
}

// BenchmarkFigCoalesced regenerates the appendix figure: open addressing vs
// coalesced chaining.
func BenchmarkFigCoalesced(b *testing.B) {
	for _, coal := range []bool{false, true} {
		name := "open-addressing"
		if coal {
			name = "coalesced"
		}
		b.Run(name, func(b *testing.B) {
			eachGraph(b, func(b *testing.B, g *graph.CSR) {
				opt := nulpa.DefaultOptions()
				opt.Coalesced = coal
				runNuLPA(b, g, opt)
			})
		})
	}
}

// BenchmarkFigCompare regenerates Figure 6's runtime axis: every
// implementation on every benchmark graph. Modularity is attached as a
// metric, covering Figure 6c.
func BenchmarkFigCompare(b *testing.B) {
	b.Run("FLPA", func(b *testing.B) {
		eachGraph(b, func(b *testing.B, g *graph.CSR) {
			var labels []uint32
			for i := 0; i < b.N; i++ {
				labels = must(flpa.Detector{}.Detect(g, engine.Options{})).Labels
			}
			b.ReportMetric(quality.Modularity(g, labels), "modularity")
		})
	})
	b.Run("NetworKit-PLP", func(b *testing.B) {
		eachGraph(b, func(b *testing.B, g *graph.CSR) {
			var labels []uint32
			for i := 0; i < b.N; i++ {
				labels = must(plp.Detector{}.Detect(g, engine.Options{})).Labels
			}
			b.ReportMetric(quality.Modularity(g, labels), "modularity")
		})
	})
	b.Run("GVE-LPA", func(b *testing.B) {
		eachGraph(b, func(b *testing.B, g *graph.CSR) {
			var labels []uint32
			for i := 0; i < b.N; i++ {
				labels = must(gvelpa.Detector{}.Detect(g, engine.Options{})).Labels
			}
			b.ReportMetric(quality.Modularity(g, labels), "modularity")
		})
	})
	b.Run("Gunrock-LPA", func(b *testing.B) {
		eachGraph(b, func(b *testing.B, g *graph.CSR) {
			var labels []uint32
			for i := 0; i < b.N; i++ {
				labels = must(gunrock.Detector{}.Detect(g, engine.Options{})).Labels
			}
			b.ReportMetric(quality.Modularity(g, labels), "modularity")
		})
	})
	b.Run("Louvain", func(b *testing.B) {
		eachGraph(b, func(b *testing.B, g *graph.CSR) {
			var labels []uint32
			for i := 0; i < b.N; i++ {
				labels = must(louvain.Detector{}.Detect(g, engine.Options{})).Labels
			}
			b.ReportMetric(quality.Modularity(g, labels), "modularity")
		})
	})
	b.Run("nuLPA-simt", func(b *testing.B) {
		eachGraph(b, func(b *testing.B, g *graph.CSR) {
			runNuLPA(b, g, nulpa.DefaultOptions())
		})
	})
	b.Run("nuLPA-direct", func(b *testing.B) {
		eachGraph(b, func(b *testing.B, g *graph.CSR) {
			runNuLPA(b, g, nulpa.DirectOptions())
		})
	})
}

// BenchmarkTabDataset regenerates Table 1's |Γ| column workload: a default
// ν-LPA run over one stand-in per dataset class, reporting the community
// count found.
func BenchmarkTabDataset(b *testing.B) {
	eachGraph(b, func(b *testing.B, g *graph.CSR) {
		res := runNuLPA(b, g, nulpa.DefaultOptions())
		b.ReportMetric(float64(quality.CountCommunities(res.Labels)), "communities")
	})
}

// must unwraps a detector result in tests where no error is expected
// (no context or fault injection is configured on these runs).
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
