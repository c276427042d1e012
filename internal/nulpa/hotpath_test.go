package nulpa

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/simt"
)

// TestHotPathTablesUsePointerReceivers guards the per-vertex hot path
// against view copies: a value receiver on a hashtable view makes Go copy
// the whole view on every accumulate, slot probe, clear and max-scan, which
// has cost 15–40% of a run before. Every method of anyTable, Table and
// CoalescedTable must take a pointer receiver.
func TestHotPathTablesUsePointerReceivers(t *testing.T) {
	views := map[string]bool{"anyTable": true, "Table": true, "CoalescedTable": true}
	fset := token.NewFileSet()
	checked := 0
	for _, path := range []string{"table.go", "../hashtable/hashtable.go", "../hashtable/pick.go", "../hashtable/coalesced.go"} {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			typ := fn.Recv.List[0].Type
			star, ptr := typ.(*ast.StarExpr)
			if ptr {
				typ = star.X
			}
			id, ok := typ.(*ast.Ident)
			if !ok || !views[id.Name] {
				continue
			}
			checked++
			if !ptr {
				t.Errorf("%s: %s.%s has a value receiver; hot-path views are used by pointer",
					fset.Position(fn.Pos()), id.Name, fn.Name.Name)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no view methods found: the guard is vacuous")
	}
}

// BenchmarkVertexKernels times a full Detect with default options, which
// runs the per-vertex hot paths of both ν-LPA kernels: on a road graph
// every vertex runs on the thread-per-vertex kernel, on a web graph the
// thread and block kernels share the work, and on a social graph the
// block-per-vertex kernel carries the hubs. Every case runs at 1 SM; the
// road graph also runs at 2, where a move wakes neighbours that another SM
// claims.
func BenchmarkVertexKernels(b *testing.B) {
	social, _ := gen.Social(gen.DefaultSocial(20000, 32, 101))
	road := gen.Road(gen.DefaultRoad(50000, 101))
	for _, bc := range []struct {
		name string
		g    *graph.CSR
		sms  int
	}{
		{"road-50k", road, 1},
		{"road-50k/sms2", road, 2},
		{"web-20k", gen.Web(gen.DefaultWeb(20000, 8, 101)), 1},
		{"social-20k", social, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt := DefaultOptions()
				opt.Device = simt.NewDevice(bc.sms)
				if _, err := Detect(bc.g, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
