package arch

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// substrates are the leaf packages that must stay stdlib-only: generic data
// structures and plumbing with no knowledge of entity resolution's domain
// types, safe to reuse, test, and reason about in isolation. (blocking,
// pool-consumers and friends are mid-layer packages, governed by the
// allowed-import table below instead.)
var substrates = []string{
	"pier/internal/bloom",
	"pier/internal/cluster",
	"pier/internal/intern",
	"pier/internal/metrics",
	"pier/internal/obsv",
	"pier/internal/plot",
	"pier/internal/profile",
	"pier/internal/queue",
	"pier/internal/skiplist",
	"pier/internal/snapshot",
	"pier/internal/storage",
}

// allowedImports is the Golden Rule table: every module-internal import edge
// that is allowed to exist. A package absent from the table may import no
// module package at all; an edge absent from its row is forbidden. Adding an
// edge here is a deliberate architectural decision — the test failure
// message is the review prompt.
var allowedImports = map[string][]string{
	"pier": {
		"pier/internal/baseline",
		"pier/internal/blocking",
		"pier/internal/core",
		"pier/internal/match",
		"pier/internal/metablocking",
		"pier/internal/obsv",
		"pier/internal/profile",
		"pier/internal/serve",
		"pier/internal/snapshot",
		"pier/internal/storage",
		"pier/internal/stream",
	},
	"pier/internal/arch":     {},
	"pier/internal/baseline": {"pier/internal/blocking", "pier/internal/core", "pier/internal/metablocking", "pier/internal/profile"},
	"pier/internal/blocking": {"pier/internal/intern", "pier/internal/match", "pier/internal/pool", "pier/internal/profile", "pier/internal/storage"},
	"pier/internal/check": {
		"pier/internal/baseline",
		"pier/internal/blocking",
		"pier/internal/core",
		"pier/internal/dataset",
		"pier/internal/fault",
		"pier/internal/match",
		"pier/internal/metablocking",
		"pier/internal/pool",
		"pier/internal/profile",
		"pier/internal/storage",
		"pier/internal/stream",
	},
	"pier/internal/core": {
		"pier/internal/blocking",
		"pier/internal/bloom",
		"pier/internal/intern",
		"pier/internal/match",
		"pier/internal/metablocking",
		"pier/internal/obsv",
		"pier/internal/pool",
		"pier/internal/profile",
		"pier/internal/queue",
		"pier/internal/skiplist",
	},
	"pier/internal/dataset":      {"pier/internal/profile"},
	"pier/internal/experiments":  {"pier/internal/baseline", "pier/internal/core", "pier/internal/dataset", "pier/internal/match", "pier/internal/stream"},
	"pier/internal/fault":        {"pier/internal/match", "pier/internal/profile"},
	"pier/internal/match":        {"pier/internal/intern", "pier/internal/obsv", "pier/internal/profile"},
	"pier/internal/metablocking": {"pier/internal/blocking", "pier/internal/intern", "pier/internal/profile"},
	"pier/internal/pool":         {"pier/internal/obsv"},
	"pier/internal/serve":        {"pier/internal/obsv"},
	"pier/internal/stream": {
		"pier/internal/blocking",
		"pier/internal/cluster",
		"pier/internal/core",
		"pier/internal/intern",
		"pier/internal/match",
		"pier/internal/metablocking",
		"pier/internal/metrics",
		"pier/internal/obsv",
		"pier/internal/pool",
		"pier/internal/profile",
		"pier/internal/snapshot",
		"pier/internal/storage",
	},
	// cmd/* sanctioned surfaces: binaries wire things together but must not
	// grow casual dependencies on internals.
	"pier/cmd/benchguard": {},
	"pier/cmd/pierbench":  {"pier/internal/experiments"},
	"pier/cmd/piercal":    {"pier/internal/baseline", "pier/internal/core", "pier/internal/dataset", "pier/internal/match", "pier/internal/stream"},
	"pier/cmd/piergen":    {"pier/internal/dataset"},
	"pier/cmd/pierload":   {"pier", "pier/internal/dataset", "pier/internal/profile"},
	"pier/cmd/pierplot":   {"pier/internal/plot"},
	"pier/cmd/pierrun": {
		"pier/internal/baseline",
		"pier/internal/core",
		"pier/internal/dataset",
		"pier/internal/match",
		"pier/internal/obsv",
		"pier/internal/storage",
		"pier/internal/stream",
	},
	// examples are user-facing: the public API plus the dataset helpers.
	"pier/examples/compare":      {"pier", "pier/internal/dataset"},
	"pier/examples/construction": {"pier"},
	"pier/examples/fincrime":     {"pier"},
	"pier/examples/quickstart":   {"pier"},
}

// testOnly lists the package-level identifiers that exist for tests to
// compare against — the executable specification of edge weighting — and that
// no production code outside their package may call: the sweep Kernel is the
// only production weigher, and a second caller of the reference would be a
// second weighting path.
var testOnly = []string{
	"pier/internal/metablocking.Candidates",
	"pier/internal/metablocking.SharedBlocks",
}

func moduleGraph(t *testing.T) map[string][]string {
	t.Helper()
	root, err := ModuleRoot()
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	graph, err := ImportGraph(root)
	if err != nil {
		t.Fatalf("parsing import graph: %v", err)
	}
	if len(graph) < 10 {
		t.Fatalf("import graph suspiciously small (%d packages) — walker broken?", len(graph))
	}
	return graph
}

// TestAllowedImportTable is the Golden Rule: every module-internal import of
// every package must appear in the allowed-import table.
func TestAllowedImportTable(t *testing.T) {
	graph := moduleGraph(t)
	for pkg, imports := range graph {
		allowed := make(map[string]struct{})
		for _, a := range allowedImports[pkg] {
			allowed[a] = struct{}{}
		}
		for _, imp := range ModuleImports(imports) {
			if _, ok := allowed[imp]; !ok {
				t.Errorf("forbidden import edge: %s -> %s\nIf this edge is an intentional design decision, add it to the allowed-import table in internal/arch/arch_test.go and document it in DESIGN.md §13.", pkg, imp)
			}
		}
	}
}

// TestAllowedImportTableIsTight fails when the table allows an edge that no
// longer exists, so the table cannot rot into fiction.
func TestAllowedImportTableIsTight(t *testing.T) {
	graph := moduleGraph(t)
	for pkg, allowed := range allowedImports {
		imports, ok := graph[pkg]
		if !ok {
			t.Errorf("allowed-import table lists %s, which no longer exists", pkg)
			continue
		}
		actual := make(map[string]struct{})
		for _, imp := range ModuleImports(imports) {
			actual[imp] = struct{}{}
		}
		for _, a := range allowed {
			if _, ok := actual[a]; !ok {
				t.Errorf("stale table entry: %s -> %s is allowed but unused; remove it", pkg, a)
			}
		}
	}
}

// TestSubstratesAreStdlibOnly pins the leaf layer: substrate packages import
// nothing but the standard library — no module packages, no third-party
// modules.
func TestSubstratesAreStdlibOnly(t *testing.T) {
	graph := moduleGraph(t)
	for _, pkg := range substrates {
		imports, ok := graph[pkg]
		if !ok {
			t.Errorf("substrate %s not found in the import graph", pkg)
			continue
		}
		for _, imp := range imports {
			if !Stdlib(imp) {
				t.Errorf("substrate %s imports %s; substrates must stay stdlib-only", pkg, imp)
			}
		}
	}
}

// TestCoreDoesNotImportStream pins the strategy/runtime split, transitively:
// the paper's prioritization strategies must stay runnable without the live
// runtime, so nothing core reaches can pull stream in.
func TestCoreDoesNotImportStream(t *testing.T) {
	graph := moduleGraph(t)
	deps := TransitiveDeps(graph, "pier/internal/core")
	if _, bad := deps["pier/internal/stream"]; bad {
		t.Fatal("pier/internal/core depends (transitively) on pier/internal/stream; the strategy layer must not know the runtime")
	}
	if _, bad := deps["pier"]; bad {
		t.Fatal("pier/internal/core depends (transitively) on the public pier package")
	}
}

// TestCmdsUseOnlySanctionedInternals double-checks that every cmd/* binary
// has an explicit row in the table — a new binary must declare its surface.
func TestCmdsUseOnlySanctionedInternals(t *testing.T) {
	graph := moduleGraph(t)
	for pkg := range graph {
		if !strings.HasPrefix(pkg, "pier/cmd/") {
			continue
		}
		if _, ok := allowedImports[pkg]; !ok {
			t.Errorf("binary %s has no row in the allowed-import table; declare its sanctioned internal surface", pkg)
		}
	}
}

// TestStoragePackageIsALeaf pins the dependency inversion of the storage
// seam: nothing below blocking may import storage, and storage imports
// nothing of the module (it is generic; owners supply codecs).
func TestStoragePackageIsALeaf(t *testing.T) {
	graph := moduleGraph(t)
	if deps := ModuleImports(graph["pier/internal/storage"]); len(deps) != 0 {
		t.Fatalf("pier/internal/storage imports module packages %v; it must stay generic", deps)
	}
	users := []string{}
	for pkg, imports := range graph {
		for _, imp := range ModuleImports(imports) {
			if imp == "pier/internal/storage" {
				users = append(users, pkg)
			}
		}
	}
	sort.Strings(users)
	for _, u := range users {
		switch u {
		case "pier", "pier/internal/blocking", "pier/internal/check", "pier/internal/stream", "pier/cmd/pierrun":
		default:
			t.Errorf("unexpected storage consumer %s; the seam's sanctioned owners are blocking, stream, check, pier, and pierrun", u)
		}
	}
}

// TestReferencesStayReferences is the test-only rule: no non-test file
// outside the declaring package selects an identifier of the testOnly table,
// and every entry still names a declared identifier (so the table cannot rot
// into fiction either).
func TestReferencesStayReferences(t *testing.T) {
	root, err := ModuleRoot()
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	uses, missing, err := UsesOfTestOnly(root, testOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range uses {
		t.Errorf("production code calls a test-only reference: %s\nUse the production implementation (metablocking.Kernel); the reference exists for tests to compare against.", u)
	}
	for _, m := range missing {
		t.Errorf("stale test-only entry: %s is no longer declared; remove it", m)
	}
}

// TestUsesOfTestOnlyFires proves the rule on a synthetic module: a production
// selection is reported (under an import alias too), selections from test
// files, from the declaring package, and of same-named methods are not, and an
// entry naming an identifier that no longer exists comes back as missing.
func TestUsesOfTestOnlyFires(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/ref/ref.go", "package ref\nfunc Spec() int { return 1 }\nfunc wrap() int { return Spec() }\ntype K struct{}\nfunc (K) Spec() int { return 2 }\n")
	write("internal/ok/ok.go", "package ok\nimport \"pier/internal/ref\"\nvar V = ref.K{}.Spec()\n")
	write("internal/ok/ok_test.go", "package ok\nimport \"pier/internal/ref\"\nvar T = ref.Spec()\n")
	write("internal/bad/bad.go", "package bad\nimport \"pier/internal/ref\"\nvar V = ref.Spec()\n")
	write("internal/bad/alias.go", "package bad\nimport r \"pier/internal/ref\"\nvar W = r.Spec()\n")

	uses, missing, err := UsesOfTestOnly(root, []string{"pier/internal/ref.Spec", "pier/internal/ref.Gone"})
	if err != nil {
		t.Fatal(err)
	}
	wantUses := []string{
		filepath.Join(root, "internal/bad/alias.go") + ": pier/internal/ref.Spec",
		filepath.Join(root, "internal/bad/bad.go") + ": pier/internal/ref.Spec",
	}
	if strings.Join(uses, "\n") != strings.Join(wantUses, "\n") {
		t.Errorf("uses = %q, want %q", uses, wantUses)
	}
	if len(missing) != 1 || missing[0] != "pier/internal/ref.Gone" {
		t.Errorf("missing = %q, want the stale Gone entry only", missing)
	}
}
