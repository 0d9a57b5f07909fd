package arch

import (
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// substrates are the leaf packages that must stay stdlib-only: generic data
// structures and plumbing with no knowledge of entity resolution's domain
// types, safe to reuse, test, and reason about in isolation. (blocking,
// pool-consumers and friends are mid-layer packages, governed by the
// allowed-import table below instead.)
var substrates = []string{
	"pier/internal/cluster",
	"pier/internal/intern",
	"pier/internal/metrics",
	"pier/internal/obsv",
	"pier/internal/profile",
	"pier/internal/queue",
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
	"pier/internal/blocking": {"pier/internal/intern", "pier/internal/pool", "pier/internal/profile", "pier/internal/snapshot", "pier/internal/storage"},
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
		"pier/internal/intern",
		"pier/internal/match",
		"pier/internal/metablocking",
		"pier/internal/obsv",
		"pier/internal/profile",
		"pier/internal/queue",
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
	"pier/cmd/piergen":    {"pier/internal/dataset"},
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

// testOnly lists the declarations that exist for tests, each with the one
// line that earns its place. Only four kinds qualify: a reference
// implementation or an oracle that tests check production against, a fixture
// tests build their inputs with, and an observer tests read a reached type's
// state through. Production code must not reach any of them (the sweep Kernel
// is the only production weigher, so a second caller of the reference would
// be a second weighting path), and every entry must still be declared.
var testOnly = []struct{ name, why string }{
	{"pier/internal/metablocking.Candidates", "reference: the map-accumulator weigher the sweep Kernel is checked against"},
	{"pier/internal/metablocking.SharedBlocks", "reference: the exact CBS weight of one pair, by sorted symbol intersection"},
	{"pier/internal/blocking.Collection.Verify", "oracle: the collection's structural invariants, checked by blocking's tests after mutations"},
	{"pier/internal/profile.New", "fixture: builds the hand-written profiles of tests in every package"},
	{"pier/internal/stream.Drive", "fixture: pushes increments into a Live run at a rate, for stream's tests"},
	{"pier/internal/queue.NewDEPQ", "fixture: builds the bare interval heap that queue's tests and fuzz targets drive"},
	{"pier/internal/match.Fallible.State", "observer: the breaker's three-state machine, which the reached BreakerOpen collapses to two"},
}

// reachRoots are where the reachability walk starts besides every main and
// init: package pier's API, the harness packages, the benchmark module's
// files, and the testOnly table.
func reachRoots() Roots {
	r := Roots{
		API:   []string{"pier"},
		Whole: []string{"pier/internal/arch", "pier/internal/check", "pier/internal/fault"},
		Uses:  []string{"benchmark"},
	}
	for _, e := range testOnly {
		r.Extra = append(r.Extra, e.name)
	}
	return r
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

// moduleReach runs the reachability walk over the module once for the two
// tests that read it.
var moduleReach = sync.OnceValues(func() (reach [2][]string, err error) {
	root, err := ModuleRoot()
	if err != nil {
		return reach, err
	}
	reach[0], reach[1], err = Reachability(root, reachRoots())
	return reach, err
})

// TestEverythingReached is the dead-code rule: every declaration of the
// module is reached from a binary, package pier's API, the benchmark module,
// a harness package or the testOnly table.
func TestEverythingReached(t *testing.T) {
	reach, err := moduleReach()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range reach[0] {
		t.Errorf("unreached declaration: %s\nDelete it, or — if a test needs it as a reference, oracle, fixture or observer — list it in testOnly with its reason.", u)
	}
}

// TestReferencesStayReferences is the test-only rule: production code
// reaches no testOnly entry without the table, and every entry still names a
// declaration, so the table cannot rot into fiction.
func TestReferencesStayReferences(t *testing.T) {
	reach, err := moduleReach()
	if err != nil {
		t.Fatal(err)
	}
	why := make(map[string]string)
	for _, e := range testOnly {
		why[e.name] = e.why
	}
	for _, s := range reach[1] {
		name := s[:strings.Index(s, ": ")]
		t.Errorf("stale testOnly entry: %s (listed as %s)\nIf production now reaches it, use the production implementation or drop the entry; if it is gone, drop the entry.", s, why[name])
	}
}

// TestReachabilityFires proves the rule on a fixture module: a dead function,
// a dead method, an unreached type with its methods and an unexported helper
// of the API package are flagged, even when a test calls them; a method
// reached only through an interface, a generic method reached through an
// instantiation, and names only a separate module's test files use are not;
// and table entries that are undeclared or reached by production come back
// stale.
func TestReachabilityFires(t *testing.T) {
	unreached, stale, err := Reachability(filepath.Join("testdata", "reach"), Roots{
		API:   []string{"pier"},
		Uses:  []string{"bench"},
		Extra: []string{"pier/internal/lib.Spec", "pier/internal/lib.Gone", "pier/internal/lib.Used"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, u := range unreached {
		names = append(names, u[:strings.Index(u, " (")])
	}
	want := []string{
		"pier.unexported",
		"pier/internal/lib.Circle",
		"pier/internal/lib.Circle.Area",
		"pier/internal/lib.Dead",
		"pier/internal/lib.Square.Perimeter",
	}
	if strings.Join(names, "\n") != strings.Join(want, "\n") {
		t.Errorf("unreached = %q, want %q", names, want)
	}
	wantStale := []string{
		"pier/internal/lib.Gone: not declared",
		"pier/internal/lib.Used: reached without the entry",
	}
	if strings.Join(stale, "\n") != strings.Join(wantStale, "\n") {
		t.Errorf("stale = %q, want %q", stale, wantStale)
	}
}
