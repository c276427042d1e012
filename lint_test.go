package nulpabench

import (
	"bytes"
	"errors"
	"go/ast"
	"go/build"
	"go/format"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The algorithm packages: they meet only through the engine registry.
var algoPackages = map[string]bool{
	"nulpa/internal/flpa":     true,
	"nulpa/internal/gunrock":  true,
	"nulpa/internal/gvelpa":   true,
	"nulpa/internal/louvain":  true,
	"nulpa/internal/nulpa":    true,
	"nulpa/internal/plp":      true,
	"nulpa/internal/variants": true,
}

// layerImports bounds the nulpa packages a leaf layer may import:
//   - quality is a pure evaluation layer (modularity, census, agreement
//     metrics over a graph and labels), so every layer, telemetry
//     included, can depend on it without cycles;
//   - telemetry carries the per-iteration record every detector, device and
//     exporter shares, and its quality record is quality.LiveStats;
//   - sched is a generic serving primitive that schedules opaque closures
//     and stays ignorant of graphs, engines and HTTP.
var layerImports = map[string][]string{
	"nulpa/internal/quality":   {"nulpa/internal/graph"},
	"nulpa/internal/telemetry": {"nulpa/internal/trace", "nulpa/internal/quality"},
	"nulpa/internal/sched":     {"nulpa/internal/metrics", "nulpa/internal/trace"},
}

// layeringExempt are packages whose imports the registry cannot express:
// engine/all blank-imports every algorithm so a registry consumer pulls them
// all in with one import.
var layeringExempt = map[string]bool{
	"nulpa/internal/engine/all": true,
}

// modulePackages returns every package of the module, keyed by import
// path. Like `go list ./...`, it skips testdata, directories starting with
// "." or "_", and nested modules (benchmark/).
func modulePackages(t *testing.T) map[string]*build.Package {
	t.Helper()
	pkgs := map[string]*build.Package{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if outsideModule(path, d) {
			return filepath.SkipDir
		}
		p, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		pkgs[filepath.ToSlash(filepath.Join("nulpa", path))] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// outsideModule reports whether the walk should skip directory d at path:
// testdata, directories starting with "." or "_", and nested modules.
func outsideModule(path string, d fs.DirEntry) bool {
	if path == "." {
		return false
	}
	name := d.Name()
	if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
		return true
	}
	_, err := os.Stat(filepath.Join(path, "go.mod"))
	return err == nil
}

// TestGofmt requires every Go file of the module (the packages
// modulePackages walks, tests included) to be gofmt-clean: byte-identical
// to its go/format output.
func TestGofmt(t *testing.T) {
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && outsideModule(path, d):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		checked++
		formatted, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(src, formatted) {
			t.Errorf("%s is not gofmt-formatted (run gofmt -w %s)", path, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("found no Go files: not run from the module root?")
	}
}

// TestImportLayering enforces the engine's import layering (DESIGN.md):
// algorithm packages do not import each other, every other package imports
// at most nulpa/internal/nulpa among them (bench and cmd/nulpa need its
// Options type for the paper's parameter sweeps), and the leaf layers in
// layerImports import only what they list among nulpa packages. Only
// production imports are checked; test files may import anything (the
// conformance suite pulls in engine/all).
func TestImportLayering(t *testing.T) {
	pkgs := modulePackages(t)
	if len(pkgs) == 0 || pkgs["nulpa/internal/engine"] == nil {
		t.Fatalf("found %d packages, none of them nulpa/internal/engine: not run from the module root?", len(pkgs))
	}
	for pkg, p := range pkgs {
		if layeringExempt[pkg] {
			continue
		}
		allowed, leaf := layerImports[pkg]
		for _, imp := range p.Imports {
			if leaf && strings.HasPrefix(imp, "nulpa/") && !slices.Contains(allowed, imp) {
				t.Errorf("%s imports %s (%s may import only %s among nulpa packages)",
					pkg, imp, filepath.Base(pkg), strings.Join(allowed, ", "))
			}
			if !algoPackages[imp] {
				continue
			}
			switch {
			case algoPackages[pkg]:
				t.Errorf("%s imports sibling algorithm package %s (use the engine registry)", pkg, imp)
			case imp != "nulpa/internal/nulpa":
				t.Errorf("%s imports algorithm package %s directly (use the engine registry; only nulpa/internal/nulpa is allowed, for its Options type)", pkg, imp)
			}
		}
	}
}

// TestNoOrphanPackages: every library package of the module (a non-main
// package with non-test Go files) is a production import of some other
// package of the module. A package only its own tests reach is dead code.
func TestNoOrphanPackages(t *testing.T) {
	pkgs := modulePackages(t)
	imported := map[string]bool{}
	for _, p := range pkgs {
		for _, imp := range p.Imports {
			imported[imp] = true
		}
	}
	for pkg, p := range pkgs {
		if p.Name != "main" && len(p.GoFiles) > 0 && !imported[pkg] {
			t.Errorf("%s is imported by no other package of the module (delete it or use it)", pkg)
		}
	}
}

// sourceDir is an importable package directory name under internal/ or cmd/.
var sourceDir = regexp.MustCompile(`^(internal|cmd)(/[a-z][a-z0-9]*)+$`)

// TestSourceTree keeps the source tree clean: everything under internal/ and
// cmd/ is a Go source file or a testdata fixture, and every directory there
// (testdata trees aside) has an importable lowercase alphanumeric name.
// Editor droppings, stray binaries (a `go build` dropped next to its main
// package) and half-merged artifacts — double underscores from merge tools,
// spaces, uppercase — have landed in the tree before.
func TestSourceTree(t *testing.T) {
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			slash := filepath.ToSlash(path)
			switch {
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir():
				if path != root && !sourceDir.MatchString(slash) {
					t.Errorf("suspicious directory name %s (package directories are lowercase alphanumeric)", slash)
				}
			case !strings.HasSuffix(path, ".go"):
				t.Errorf("non-Go file %s (move it to testdata/ or delete it)", slash)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// exportAllowlist names the exports under internal/ that TestExportsUsed
// keeps although no production file uses them, each with its reason.
// Entries are package.Name or package.Type.Method.
var exportAllowlist = map[string]string{
	"quality.Coverage":                     "the γ = 0 reference of modularity, which the quality tests check it against",
	"quality.Unstable":                     "LPA's own stopping test, kept for the partition oracle of ROADMAP item 3",
	"quality.ARI":                          "the chance-corrected agreement score beside NMI, pinned by its own tests",
	"bench.ClearCache":                     "drops the memoized dataset graphs: the bench and integration tests bound their memory with it",
	"health.DecodeFlight":                  "the flight bundle's reader: the CLI, job-plane and chaos tests decode every dump with it",
	"health.FlightBundle.Validate":         "the flight bundle's checker: the CLI, job-plane and chaos tests check every dump with it",
	"gen.Star":                             "a fixture the tests of other packages share",
	"gen.Cycle":                            "a fixture the tests of other packages share",
	"gen.CompleteBipartite":                "a fixture the tests of other packages share",
	"gen.MatchedPairs":                     "a fixture the tests of other packages share",
	"graph.CSR.Validate":                   "the CSR invariant check the tests of other packages run on the graphs they build",
	"graph.ConnectedComponents":            "the connectivity check the generator tests run",
	"hashtable.Table.SecondaryModulus":     "pins the double-hashing modulus the fused probe paths use",
	"hashtable.Table.Accumulate":           "the stepwise accumulate the fused Pick paths are checked against",
	"simt.Device.MemUsed":                  "the device's reservation gauge: the simt and nulpa tests read it to show a run frees what it reserved",
	"simt.FaultNone":                       "names the zero FaultKind, the no-fault verdict the injector tests compare against",
	"variants.SLPAResult.OverlapThreshold": "SLPA's overlapping-community read-out, shown by ExampleSLPAResult_OverlapThreshold",
}

// TestExportsUsed: every exported identifier and every exported method
// declared under internal/ is used by some non-test file, of this module or
// of the benchmark/ module, which drives the programs as a client. An
// export that only tests reach is dead code, or a test helper that belongs
// in the test files. Methods that implement an interface are skipped: they
// are called through it. The exports kept on purpose are in
// exportAllowlist.
func TestExportsUsed(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules and the standard library they import; make lint runs it")
	}
	imp := newSourceImporter()
	for _, root := range []string{".", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != root && outsideModule(path, d) {
				return filepath.SkipDir
			}
			_, err = imp.checkDir(path)
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	used := map[types.Object]bool{}
	for _, info := range imp.info {
		for _, obj := range info.Uses {
			used[origin(obj)] = true
		}
	}
	ifaces := imp.interfaces()
	var moduleTypes []*types.Named
	for _, pkg := range imp.pkgs {
		for _, name := range pkg.Scope().Names() {
			if n, ok := pkg.Scope().Lookup(name).Type().(*types.Named); ok && n.TypeParams() == nil && !types.IsInterface(n) {
				moduleTypes = append(moduleTypes, n)
			}
		}
	}

	checked := 0
	for path, pkg := range imp.pkgs {
		if !strings.HasPrefix(path, "nulpa/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			checked++
			if key := pkg.Name() + "." + name; obj.Exported() && !used[obj] && exportAllowlist[key] == "" {
				t.Errorf("%s: %s is used by no non-test file (delete it, or move it to the tests that use it)",
					imp.fset.Position(obj.Pos()), key)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				key := pkg.Name() + "." + name + "." + m.Name()
				if !m.Exported() || used[m] || exportAllowlist[key] != "" || implements(m, ifaces, moduleTypes) {
					continue
				}
				t.Errorf("%s: method %s is used by no non-test file (delete it, or move it to the tests that use it)",
					imp.fset.Position(m.Pos()), key)
			}
		}
	}
	if checked == 0 {
		t.Fatal("checked no declarations: not run from the module root?")
	}
	for key := range exportAllowlist {
		if !imp.declared(key) {
			t.Errorf("exportAllowlist names %s, which is not declared under internal/", key)
		}
	}
}

// origin maps an instantiated generic function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// implements reports whether m can be called through an interface of
// ifaces: some type of candidates whose method set holds m, its receiver or a
// type embedding it, implements an interface with a method of m's name and
// signature.
func implements(m *types.Func, ifaces []*types.Interface, candidates []*types.Named) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			// Identical ignores receivers.
			if im := it.Method(i); im.Name() != m.Name() || !types.Identical(im.Type(), m.Type()) {
				continue
			}
			for _, n := range candidates {
				p := types.NewPointer(n)
				if obj, _, _ := types.LookupFieldOrMethod(p, true, m.Pkg(), m.Name()); obj == m && types.Implements(p, it) {
					return true
				}
			}
		}
	}
	return false
}

// sourceImporter type-checks the module's packages (and the benchmark
// module's, which import them) from their non-test files, keeping each
// package's use information; the standard library comes from the stdlib
// "source" importer.
type sourceImporter struct {
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*types.Package
	info map[string]*types.Info
}

func newSourceImporter() *sourceImporter {
	fset := token.NewFileSet()
	return &sourceImporter{fset: fset, std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*types.Package{}, info: map[string]*types.Info{}}
}

func (s *sourceImporter) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, ".", 0)
}

func (s *sourceImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if rest, ok := strings.CutPrefix(path, "nulpa/"); ok {
		return s.checkDir(rest)
	}
	return s.std.ImportFrom(path, dir, mode)
}

// checkDir type-checks the package in dir, a path relative to the module
// root, once.
func (s *sourceImporter) checkDir(dir string) (*types.Package, error) {
	path := filepath.ToSlash(filepath.Join("nulpa", dir))
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	p, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path], s.info[path] = p, info
	return p, nil
}

// interfaces returns every interface type the checked packages mention,
// and every exported interface of the packages they import, the standard
// library's included.
func (s *sourceImporter) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for path, p := range s.pkgs {
		walk(p)
		for _, tv := range s.info[path].Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
	}
	return append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
}

// declared reports whether key, package.Name or package.Type.Method, names
// a declaration of a package under internal/.
func (s *sourceImporter) declared(key string) bool {
	parts := strings.Split(key, ".")
	for path, p := range s.pkgs {
		if !strings.HasPrefix(path, "nulpa/internal/") || p.Name() != parts[0] {
			continue
		}
		obj := p.Scope().Lookup(parts[1])
		if obj != nil && len(parts) == 3 {
			m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, p, parts[2])
			obj = m
		}
		if obj != nil {
			return true
		}
	}
	return false
}
