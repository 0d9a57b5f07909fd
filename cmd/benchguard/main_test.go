package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStripProcs(t *testing.T) {
	cases := []struct{ in, want string }{
		{"BenchmarkFoo-8", "BenchmarkFoo"},
		{"BenchmarkStrategyUpdateIndex/I-PCS/p1-4", "BenchmarkStrategyUpdateIndex/I-PCS/p1"},
		{"BenchmarkShardedUpdateIndex/shards-4", "BenchmarkShardedUpdateIndex/shards"},
		{"BenchmarkFoo", "BenchmarkFoo"},
		{"BenchmarkFoo-x", "BenchmarkFoo-x"},
	}
	for _, c := range cases {
		if got := stripProcs(c.in); got != c.want {
			t.Errorf("stripProcs(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseBench(t *testing.T) {
	// GOMAXPROCS=1 output: go test adds no -N suffix, so the trailing -4 in
	// shards-4 is part of the sub-benchmark name itself.
	input := strings.Join([]string{
		"goos: linux",
		"BenchmarkShardedUpdateIndex/shards-4         	       5	   1200000 ns/op	  500000 B/op	    2000 allocs/op",
		"BenchmarkStrategyUpdateIndex/I-PCS/p1         	       5	   1000000 ns/op	  400000 B/op	    1500 allocs/op",
		"BenchmarkStrategyUpdateIndex/I-PCS/p1         	       5	   1100000 ns/op	  400000 B/op	    1600 allocs/op",
		"PASS",
	}, "\n")
	got, bytes, ns, err := parseBench(strings.NewReader(input), io.Discard)
	if err != nil {
		t.Fatalf("parseBench: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	if got["BenchmarkShardedUpdateIndex/shards-4"] != 2000 {
		t.Errorf("shards-4 allocs = %v, want 2000 (raw name must be preserved at parse time)", got["BenchmarkShardedUpdateIndex/shards-4"])
	}
	// Repeated benchmark (-count): worst observation wins.
	if got["BenchmarkStrategyUpdateIndex/I-PCS/p1"] != 1600 {
		t.Errorf("repeated benchmark allocs = %v, want the worst (1600)", got["BenchmarkStrategyUpdateIndex/I-PCS/p1"])
	}
	// B/op and ns/op are captured from the same lines, worst-wins as well.
	if bytes["BenchmarkShardedUpdateIndex/shards-4"] != 500000 || bytes["BenchmarkStrategyUpdateIndex/I-PCS/p1"] != 400000 {
		t.Errorf("B/op = %v, want 500000 and 400000", bytes)
	}
	if ns["BenchmarkShardedUpdateIndex/shards-4"] != 1200000 {
		t.Errorf("shards-4 ns = %v, want 1200000", ns["BenchmarkShardedUpdateIndex/shards-4"])
	}
	if ns["BenchmarkStrategyUpdateIndex/I-PCS/p1"] != 1100000 {
		t.Errorf("repeated benchmark ns = %v, want the worst (1100000)", ns["BenchmarkStrategyUpdateIndex/I-PCS/p1"])
	}
}

func TestParseBenchWithoutBenchmem(t *testing.T) {
	// Plain -bench output (no -benchmem): ns/op still parses, allocs stays
	// empty — the ns gate must not depend on -benchmem.
	input := strings.Join([]string{
		"BenchmarkCounterIncAtomic-2    	   50000	        13.80 ns/op",
		"PASS",
	}, "\n")
	allocs, bytes, ns, err := parseBench(strings.NewReader(input), io.Discard)
	if err != nil {
		t.Fatalf("parseBench: %v", err)
	}
	if len(allocs) != 0 || len(bytes) != 0 {
		t.Errorf("allocs %v, bytes %v parsed from a non-benchmem line", allocs, bytes)
	}
	if ns["BenchmarkCounterIncAtomic-2"] != 13.80 {
		t.Errorf("ns = %v, want 13.80 (fractional ns/op must parse)", ns["BenchmarkCounterIncAtomic-2"])
	}
}

func TestResolveNamesSingleCore(t *testing.T) {
	// GOMAXPROCS=1 (this repo's CI): no procs suffix, and a sub-benchmark
	// whose own name ends in -N must NOT be stripped — the old code cut
	// shards-4 down to shards and the gate reported it missing.
	base := map[string]float64{
		"BenchmarkShardedUpdateIndex/shards-4":  2000,
		"BenchmarkStrategyUpdateIndex/I-PCS/p1": 1500,
	}
	got := map[string]float64{
		"BenchmarkShardedUpdateIndex/shards-4":  2000,
		"BenchmarkStrategyUpdateIndex/I-PCS/p1": 1500,
	}
	resolved := resolveNames(got, base)
	for name, want := range base {
		if resolved[name] != want {
			t.Errorf("resolved[%q] = %v, want %v (resolved map: %v)", name, resolved[name], want, resolved)
		}
	}
	if gate(base, resolved, 0.10, "allocs/op", io.Discard, io.Discard) {
		t.Error("gate failed on exact-match single-core names; no benchmark should be missing")
	}
}

func TestResolveNamesMultiCore(t *testing.T) {
	// GOMAXPROCS=8: go test appends -8; the raw names miss the baseline and
	// the stripped forms hit it. The sub-benchmark with its own -4 gets the
	// procs suffix on top: shards-4-8 → shards-4.
	base := map[string]float64{
		"BenchmarkShardedUpdateIndex/shards-4":  2000,
		"BenchmarkStrategyUpdateIndex/I-PCS/p1": 1500,
	}
	got := map[string]float64{
		"BenchmarkShardedUpdateIndex/shards-4-8":  2100,
		"BenchmarkStrategyUpdateIndex/I-PCS/p1-8": 1400,
	}
	resolved := resolveNames(got, base)
	if resolved["BenchmarkShardedUpdateIndex/shards-4"] != 2100 {
		t.Errorf("shards-4-8 did not resolve to shards-4: %v", resolved)
	}
	if resolved["BenchmarkStrategyUpdateIndex/I-PCS/p1"] != 1400 {
		t.Errorf("p1-8 did not resolve to p1: %v", resolved)
	}
	if gate(base, resolved, 0.10, "allocs/op", io.Discard, io.Discard) {
		t.Error("gate failed on multi-core names within the regress limit")
	}
}

func TestResolveNamesUnknownKeptRaw(t *testing.T) {
	base := map[string]float64{"BenchmarkGuarded": 100}
	got := map[string]float64{
		"BenchmarkGuarded":     90,
		"BenchmarkUnguarded-2": 5,
	}
	resolved := resolveNames(got, base)
	if _, ok := resolved["BenchmarkUnguarded-2"]; !ok {
		t.Errorf("unguarded name stripped even though neither form is a baseline key: %v", resolved)
	}
}

func TestGateRegressionAndMissing(t *testing.T) {
	base := map[string]float64{
		"BenchmarkA": 100,
		"BenchmarkB": 100,
	}
	// A regressed past 10%, B is missing entirely.
	resolved := map[string]float64{"BenchmarkA": 120}
	var errOut strings.Builder
	if !gate(base, resolved, 0.10, "allocs/op", io.Discard, &errOut) {
		t.Fatal("gate passed despite a regression and a missing benchmark")
	}
	if !strings.Contains(errOut.String(), "BenchmarkA") || !strings.Contains(errOut.String(), "BenchmarkB") {
		t.Errorf("gate output missing verdicts: %q", errOut.String())
	}

	// Within the limit: passes.
	if gate(base, map[string]float64{"BenchmarkA": 105, "BenchmarkB": 100}, 0.10, "allocs/op", io.Discard, io.Discard) {
		t.Error("gate failed within the regress limit")
	}
}

// writeBaseline writes a baseline file into a test's temp dir and returns its
// path.
func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "gates.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runGuard runs the command on a baseline and benchmark output and returns
// its exit code and stderr.
func runGuard(t *testing.T, baseline, input string) (int, string) {
	t.Helper()
	var errOut strings.Builder
	code := run([]string{"-baseline", writeBaseline(t, baseline)}, strings.NewReader(input), io.Discard, &errOut)
	return code, errOut.String()
}

func TestRunRejectsUnknownSectionAndEmptyBaseline(t *testing.T) {
	// guard_baseline is the old schema's name: read by the new schema it
	// would gate nothing, so it must be an error, not ignored.
	const line = "BenchmarkA   5   100 ns/op   10 B/op   1 allocs/op\n"
	for name, body := range map[string]string{
		"unknown section": `{"allocs": {"BenchmarkA": 1}, "guard_baseline": {"BenchmarkA": 1}}`,
		"no entries":      `{"notes": {"schema": "nothing gated"}}`,
		"not json":        `allocs: 1`,
	} {
		if code, errOut := runGuard(t, body, line); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", name, code, errOut)
		}
	}
	if code, errOut := runGuard(t, `{"allocs": {"BenchmarkA": 1}}`, line); code != 0 {
		t.Errorf("valid baseline: exit %d, want 0 (stderr %q)", code, errOut)
	}
}

func TestRunZeroAllocBaselineFailsOnFirstAllocation(t *testing.T) {
	base := `{"allocs": {"BenchmarkCandidatesKernel/CBS": 0}}`
	if code, errOut := runGuard(t, base, "BenchmarkCandidatesKernel/CBS-2   1000   9000 ns/op   0 B/op   0 allocs/op\n"); code != 0 {
		t.Errorf("0 allocs against a 0 baseline: exit %d, want 0 (stderr %q)", code, errOut)
	}
	code, errOut := runGuard(t, base, "BenchmarkCandidatesKernel/CBS-2   1000   9000 ns/op   16 B/op   1 allocs/op\n")
	if code != 1 || !strings.Contains(errOut, "BenchmarkCandidatesKernel/CBS") {
		t.Errorf("1 alloc against a 0 baseline: exit %d, want 1 naming the benchmark (stderr %q)", code, errOut)
	}
}

func TestRunNsTripwireAtThreeTimes(t *testing.T) {
	base := `{"ns": {"BenchmarkStrategyDequeue/I-PES": 1000000}}`
	if code, errOut := runGuard(t, base, "BenchmarkStrategyDequeue/I-PES   5   3000000 ns/op\n"); code != 0 {
		t.Errorf("3x the baseline: exit %d, want 0 (stderr %q)", code, errOut)
	}
	code, errOut := runGuard(t, base, "BenchmarkStrategyDequeue/I-PES   5   3100000 ns/op\n")
	if code != 1 || !strings.Contains(errOut, "ns/op") {
		t.Errorf("3.1x the baseline: exit %d, want 1 on ns/op (stderr %q)", code, errOut)
	}
}

func TestRunMissingGuardedBenchmarkFails(t *testing.T) {
	base := `{"allocs": {"BenchmarkLiveBurst": 100, "BenchmarkLiveBurstSpill": 100}}`
	code, errOut := runGuard(t, base, "BenchmarkLiveBurst   5   1000 ns/op   10 B/op   100 allocs/op\n")
	if code != 1 || !strings.Contains(errOut, "BenchmarkLiveBurstSpill: guarded benchmark missing") {
		t.Errorf("exit %d, want 1 naming the missing benchmark (stderr %q)", code, errOut)
	}
}

func TestGateVerdictsInNameOrder(t *testing.T) {
	base := map[string]float64{"BenchmarkC": 1, "BenchmarkA": 1, "BenchmarkB": 1}
	var out strings.Builder
	gate(base, base, 0.10, "allocs/op", &out, io.Discard)
	a := strings.Index(out.String(), "BenchmarkA")
	b := strings.Index(out.String(), "BenchmarkB")
	c := strings.Index(out.String(), "BenchmarkC")
	if !(a >= 0 && a < b && b < c) {
		t.Errorf("verdicts not in name order:\n%s", out.String())
	}
}

func TestRunAllocsAndBytesAreTwoSided(t *testing.T) {
	base := `{"allocs": {"BenchmarkQuery": 100}, "bytes": {"BenchmarkQuery": 1000}, "ns": {"BenchmarkQuery": 1000}}`
	line := func(ns, bytes, allocs int) string {
		return fmt.Sprintf("BenchmarkQuery-2   1000   %d ns/op   %d B/op   %d allocs/op\n", ns, bytes, allocs)
	}
	// At the floors (10% and 25% below) and far below on ns: passes.
	if code, errOut := runGuard(t, base, line(10, 750, 90)); code != 0 {
		t.Errorf("readings at the floors: exit %d, want 0 (stderr %q)", code, errOut)
	}
	for name, c := range map[string]struct {
		input, unit string
	}{
		"allocs below": {line(1000, 1000, 89), "allocs/op"},
		"bytes below":  {line(1000, 749, 100), "B/op"},
		"allocs above": {line(1000, 1000, 111), "allocs/op"},
		"bytes above":  {line(1000, 1251, 100), "B/op"},
	} {
		code, errOut := runGuard(t, base, c.input)
		if code != 1 || !strings.Contains(errOut, c.unit) {
			t.Errorf("%s: exit %d, want 1 on %s (stderr %q)", name, code, c.unit, errOut)
		}
		if strings.HasSuffix(name, "below") && !strings.Contains(errOut, "re-record") {
			t.Errorf("%s: the failure does not ask for a re-record: %q", name, errOut)
		}
	}
}
