package arch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fuzzRow matches one fuzz-smoke matrix row of the CI workflow.
var fuzzRow = regexp.MustCompile(`(?m)^\s*-\s*\{\s*pkg:\s*(\S+),\s*target:\s*(\w+)\s*\}`)

// fuzzTargets returns every fuzz target of the module under root as
// "importpath.FuzzName": each top-level func Fuzz…(*testing.F) in a test
// file. Nested modules (a directory with its own go.mod) are not part of
// the module and are skipped.
func fuzzTargets(root string) ([]string, error) {
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == root {
				return nil
			}
			if strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := ModulePath
		if rel != "." {
			pkg = ModulePath + "/" + filepath.ToSlash(rel)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") && takesFuzzT(fn) {
				out = append(out, pkg+"."+fn.Name.Name)
			}
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// takesFuzzT reports whether fn's one parameter is a *testing.F.
func takesFuzzT(fn *ast.FuncDecl) bool {
	params := fn.Type.Params.List
	if len(params) != 1 || len(params[0].Names) > 1 {
		return false
	}
	star, ok := params[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "F" {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "testing"
}

// TestFuzzMatrixNamesEveryTarget pins CI's fuzz-smoke matrix to the module's
// fuzz targets, by package and by name. go test -fuzz with a pattern that
// matches nothing prints "no fuzz tests to fuzz" and exits 0, so a row left
// behind by a rename or a deletion would pass silently, and a new target
// without a row would never be fuzzed.
func TestFuzzMatrixNamesEveryTarget(t *testing.T) {
	root, err := ModuleRoot()
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	want, err := fuzzTargets(root)
	if err != nil {
		t.Fatalf("listing fuzz targets: %v", err)
	}
	if len(want) == 0 {
		t.Fatal("found no fuzz targets — walker broken?")
	}
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatalf("reading the CI workflow: %v", err)
	}
	rows := make(map[string]int)
	for _, m := range fuzzRow.FindAllStringSubmatch(string(ci), -1) {
		pkg := ModulePath
		if rel := strings.TrimPrefix(strings.TrimPrefix(m[1], "."), "/"); rel != "" {
			pkg = ModulePath + "/" + rel
		}
		rows[pkg+"."+m[2]]++
	}
	for _, w := range want {
		if rows[w] == 0 {
			t.Errorf("fuzz target %s has no fuzz-smoke row in ci.yml", w)
		}
	}
	targets := make(map[string]bool, len(want))
	for _, w := range want {
		targets[w] = true
	}
	for g, n := range rows {
		switch {
		case !targets[g]:
			t.Errorf("ci.yml fuzz-smoke row %s names no fuzz target", g)
		case n > 1:
			t.Errorf("ci.yml lists fuzz target %s in %d rows", g, n)
		}
	}
}
