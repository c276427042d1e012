package nulpabench

import (
	"bytes"
	"errors"
	"go/build"
	"go/format"
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
