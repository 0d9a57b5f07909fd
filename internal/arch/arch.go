// Package arch enforces the repository's layering as executable rules: it
// parses every package with go/parser (test files excluded) and the tests in
// this package fail the build on forbidden import edges, and — type-checking
// the module with go/types (see Reachability) — on a declaration that nothing
// reaches or on production code reaching one that exists only for tests.
// The import rules live in one allowed-import table — the "Golden Rule" idiom — so
// adding a dependency edge is a deliberate, reviewed table change, never an
// accident that quietly couples layers. DESIGN.md §13 documents the layer
// model the table encodes:
//
//   - substrates (intern, queue, skiplist, bloom, obsv, storage, ...) are
//     stdlib-only: they may not import any module package;
//   - core (the paper's strategies) must never import stream (the runtime) —
//     strategies stay runnable under any driver;
//   - cmd/* binaries touch internal/* only through their sanctioned surface.
package arch

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ModulePath is the import-path prefix of this module.
const ModulePath = "pier"

// walkFiles parses, with the given mode, every non-test Go file of the module
// under root that some build includes, and hands each to visit along with its
// package's import path. Test files (_test.go) are excluded: test-only
// dependencies — oracles importing everything, fixtures — are not
// architecture. Platform and feature build tags are treated as satisfied — a
// forbidden edge behind a tag is still a forbidden edge — but files whose
// constraint can only be met by the conventional "ignore" tag (generator
// scripts run via `go run`) are never part of any package and are skipped.
func walkFiles(root string, mode parser.Mode, visit func(pkg, path string, f *ast.File)) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkg := ModulePath
		if rel != "." {
			pkg = ModulePath + "/" + filepath.ToSlash(rel)
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			fname := e.Name()
			if e.IsDir() || !strings.HasSuffix(fname, ".go") || strings.HasSuffix(fname, "_test.go") {
				continue
			}
			file := filepath.Join(path, fname)
			f, err := parser.ParseFile(fset, file, nil, mode|parser.ParseComments)
			if err != nil {
				return fmt.Errorf("parse %s: %w", file, err)
			}
			if !neverBuilt(f) {
				visit(pkg, file, f)
			}
		}
		return nil
	})
}

// ImportGraph maps each package of the module (by import path) to the sorted
// set of packages it imports, parsed from source (see walkFiles for which
// files count).
func ImportGraph(root string) (map[string][]string, error) {
	sets := make(map[string]map[string]struct{})
	err := walkFiles(root, parser.ImportsOnly, func(pkg, _ string, f *ast.File) {
		if sets[pkg] == nil {
			sets[pkg] = make(map[string]struct{})
		}
		for _, imp := range f.Imports {
			sets[pkg][strings.Trim(imp.Path.Value, `"`)] = struct{}{}
		}
	})
	if err != nil {
		return nil, err
	}
	graph := make(map[string][]string, len(sets))
	for pkg, imports := range sets {
		list := make([]string, 0, len(imports))
		for imp := range imports {
			list = append(list, imp)
		}
		sort.Strings(list)
		graph[pkg] = list
	}
	return graph, nil
}

// neverBuilt reports whether a file's build constraint excludes it from every
// build: evaluated with "ignore" false and all other tags true, so platform-
// or feature-gated files still count (their edges are real on some build)
// while `//go:build ignore` generator scripts do not.
func neverBuilt(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) && !constraint.IsPlusBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			if !expr.Eval(func(tag string) bool { return tag != "ignore" }) {
				return true
			}
		}
	}
	return false
}

// ModuleRoot walks up from the working directory to the directory holding
// go.mod.
func ModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("arch: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// ModuleImports filters an import list down to this module's packages.
func ModuleImports(imports []string) []string {
	var out []string
	for _, imp := range imports {
		if imp == ModulePath || strings.HasPrefix(imp, ModulePath+"/") {
			out = append(out, imp)
		}
	}
	return out
}

// Stdlib reports whether an import path names a standard-library package: no
// module prefix and no dot in the first path element (the module has zero
// third-party dependencies, and this check keeps it that way for the
// packages it is applied to).
func Stdlib(imp string) bool {
	if imp == ModulePath || strings.HasPrefix(imp, ModulePath+"/") {
		return false
	}
	first := imp
	if i := strings.IndexByte(imp, '/'); i >= 0 {
		first = imp[:i]
	}
	return !strings.Contains(first, ".")
}

// TransitiveDeps returns every package reachable from start through the
// module-internal edges of graph, excluding start itself.
func TransitiveDeps(graph map[string][]string, start string) map[string]struct{} {
	seen := make(map[string]struct{})
	var walk func(pkg string)
	walk = func(pkg string) {
		for _, dep := range ModuleImports(graph[pkg]) {
			if _, ok := seen[dep]; ok {
				continue
			}
			seen[dep] = struct{}{}
			walk(dep)
		}
	}
	walk(start)
	delete(seen, start)
	return seen
}
