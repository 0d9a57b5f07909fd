// Command benchguard is the performance-regression gate for the benchmark
// smoke job: it reads `go test -bench ... -benchmem` output on stdin,
// extracts allocs/op, B/op and ns/op per benchmark, and compares each against
// a committed baseline (the guard_baseline, guard_bytes_baseline and
// guard_ns_baseline sections of BENCH_intern.json). Allocations are the
// primary guarded metric because they are stable across runner hardware — an
// allocs/op jump is a real code change every time. B/op is gated where the
// count cannot see the cost: one allocation per batch sized by findK's K is a
// single alloc and 12.8 MB (guard_bytes_baseline, a fixed 25% over baseline).
// ns/op is gated too, but with a deliberately generous limit (default 200%
// over baseline): on shared CI machines wall time is noisy, so the ns gate
// only catches catastrophic slowdowns — an accidental O(n²), a lock on the
// hot path — not
// ordinary jitter.
//
// Usage:
//
//	go test -run TestNothing -bench BenchmarkStrategyUpdateIndex -benchtime=5x -benchmem . | \
//	    go run ./cmd/benchguard -baseline BENCH_intern.json
//
// The run fails (exit 1) when any guarded benchmark exceeds its baseline by
// more than -max-regress (allocs/op, default 10%), 25% (B/op) or
// -max-ns-regress (ns/op, default 200%), and when a guarded benchmark is
// missing from the input — a gate that silently stops measuring is worse than
// no gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// baselineFile is the slice of BENCH_intern.json the guard consumes; other
// sections are recording, not gating.
type baselineFile struct {
	GuardBaseline      map[string]float64 `json:"guard_baseline"`
	GuardBytesBaseline map[string]float64 `json:"guard_bytes_baseline"`
	GuardNsBaseline    map[string]float64 `json:"guard_ns_baseline"`
}

// maxBytesRegress is the allowed fractional B/op increase over
// guard_bytes_baseline. Wider than the allocs/op limit because bytes follow
// the runtime's size classes and map layout from one toolchain to the next
// (about 10% between map implementations on the guarded benchmark); the
// regression it exists for, a buffer sized by K, is a multiple, not a
// percentage.
const maxBytesRegress = 0.25

// benchAllocs matches one -benchmem result line, capturing the benchmark name
// (with sub-benchmark path, GOMAXPROCS suffix still attached) and allocs/op.
var benchAllocs = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+.*?\s(\d+)\s+allocs/op`)

// benchBytes matches the B/op column of a -benchmem result line.
var benchBytes = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+.*?\s(\d+)\s+B/op`)

// benchNs matches any benchmark result line's ns/op column (present with or
// without -benchmem).
var benchNs = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+)\s+ns/op`)

// stripProcs removes the trailing -GOMAXPROCS from a benchmark name, so
// baselines are portable across runner core counts. It must only be applied
// when the raw name does not itself match a baseline key: go test omits the
// suffix entirely when GOMAXPROCS=1, and a sub-benchmark whose own name ends
// in -N (e.g. BenchmarkShardedUpdateIndex/shards-4) would otherwise be
// mangled into a name the baseline has never heard of. resolveNames applies
// that policy; stripProcs is just the mechanical suffix cut.
func stripProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parseBench scans benchmark output, echoing every line to echo (so CI logs
// keep the raw numbers) and collecting allocs/op, B/op and ns/op per raw
// benchmark name. When -count repeats a benchmark the worst (highest)
// observation wins.
func parseBench(r io.Reader, echo io.Writer) (allocs, bytes, ns map[string]float64, err error) {
	allocs = make(map[string]float64)
	bytes = make(map[string]float64)
	ns = make(map[string]float64)
	columns := []struct {
		re   *regexp.Regexp
		into map[string]float64
	}{{benchAllocs, allocs}, {benchBytes, bytes}, {benchNs, ns}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		for _, col := range columns {
			if m := col.re.FindStringSubmatch(line); m != nil {
				v, _ := strconv.ParseFloat(m[2], 64)
				if prev, ok := col.into[m[1]]; !ok || v > prev {
					col.into[m[1]] = v
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, nil, err
	}
	return allocs, bytes, ns, nil
}

// resolveNames maps raw benchmark names onto baseline keys. A raw name that
// is itself a baseline key is taken verbatim — never stripped, so a
// legitimate trailing -N in a sub-benchmark name (shards-4) survives even on
// single-core runners where go test adds no procs suffix. Only when the raw
// name misses the baseline is the -GOMAXPROCS suffix stripped, and the
// stripped form is used only if it actually hits a baseline key. Names that
// match nothing are kept raw (they are simply unguarded). When stripping
// collapses several raw names onto one key, the worst observation wins.
func resolveNames(got, base map[string]float64) map[string]float64 {
	resolved := make(map[string]float64, len(got))
	for raw, v := range got {
		name := raw
		if _, inBase := base[raw]; !inBase {
			if s := stripProcs(raw); s != raw {
				if _, ok := base[s]; ok {
					name = s
				}
			}
		}
		if prev, ok := resolved[name]; !ok || v > prev {
			resolved[name] = v
		}
	}
	return resolved
}

// gate compares each guarded baseline entry against the resolved
// observations, writing verdicts to out/errOut. unit labels the metric in
// messages ("allocs/op" or "ns/op"). It returns true when any guarded
// benchmark regressed past maxRegress or is missing from the input.
func gate(base, resolved map[string]float64, maxRegress float64, unit string, out, errOut io.Writer) bool {
	failed := false
	for name, want := range base {
		have, ok := resolved[name]
		if !ok {
			fmt.Fprintf(errOut, "benchguard: FAIL %s: guarded benchmark missing from input\n", name)
			failed = true
			continue
		}
		limit := want * (1 + maxRegress)
		switch {
		case have > limit:
			fmt.Fprintf(errOut, "benchguard: FAIL %s: %.0f %s exceeds baseline %.0f by more than %.0f%% (limit %.0f)\n",
				name, have, unit, want, maxRegress*100, limit)
			failed = true
		case have < want:
			fmt.Fprintf(out, "benchguard: ok   %s: %.0f %s (improved from baseline %.0f — consider re-recording)\n", name, have, unit, want)
		default:
			fmt.Fprintf(out, "benchguard: ok   %s: %.0f %s (baseline %.0f, limit %.0f)\n", name, have, unit, want, limit)
		}
	}
	return failed
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_intern.json", "JSON file with guard_baseline (allocs/op), guard_bytes_baseline (B/op) and/or guard_ns_baseline (ns/op) maps")
	maxRegress := flag.Float64("max-regress", 0.10, "maximum allowed fractional allocs/op increase over baseline")
	maxNsRegress := flag.Float64("max-ns-regress", 2.00, "maximum allowed fractional ns/op increase over baseline (generous: wall time is noisy)")
	flag.Parse()

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: parse %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}
	if len(base.GuardBaseline) == 0 && len(base.GuardBytesBaseline) == 0 && len(base.GuardNsBaseline) == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %s has no guard_baseline, guard_bytes_baseline or guard_ns_baseline entries\n", *baselinePath)
		os.Exit(2)
	}

	allocs, bytes, ns, err := parseBench(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: read stdin: %v\n", err)
		os.Exit(2)
	}
	failed := false
	for _, g := range []struct {
		base, got  map[string]float64
		maxRegress float64
		unit       string
	}{
		{base.GuardBaseline, allocs, *maxRegress, "allocs/op"},
		{base.GuardBytesBaseline, bytes, maxBytesRegress, "B/op"},
		{base.GuardNsBaseline, ns, *maxNsRegress, "ns/op"},
	} {
		resolved := resolveNames(g.got, g.base)
		failed = gate(g.base, resolved, g.maxRegress, g.unit, os.Stdout, os.Stderr) || failed
	}
	if failed {
		os.Exit(1)
	}
}
