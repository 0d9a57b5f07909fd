// Command benchguard is the performance-regression gate for the benchmark
// smoke job: it reads `go test -bench ... -benchmem` output on stdin,
// extracts allocs/op, B/op and ns/op per benchmark, and compares each against
// a committed baseline (the allocs, bytes and ns sections of
// BENCH_gates.json). Allocations are the primary guarded metric because they
// are stable across runner hardware — an allocs/op jump is a real code change
// every time. B/op is gated where the count cannot see the cost: one
// allocation per batch sized by findK's K is a single alloc and 12.8 MB.
// ns/op is gated too, but only as a tripwire: on shared CI machines wall time
// is noisy, so the ns gate catches a cost that follows the wrong size — an
// accidental O(n²), a dequeue that walks the whole index — not ordinary
// jitter.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkStrategyDequeue -benchtime=5x -benchmem . | \
//	    go run ./cmd/benchguard -baseline BENCH_gates.json
//
// The run fails (exit 1) when any guarded benchmark exceeds its baseline by
// more than 10% (allocs/op), 25% (B/op) or 200% (ns/op, a 3× reading), and
// when a guarded benchmark is missing from the input — a gate that silently
// stops measuring is worse than no gate. A reading as far below its row fails
// too, asking for a re-record, since a loose row lets a regression in; the ns
// floor is below zero, so only allocs/op and B/op can fail low. A baseline
// file that does not parse, names a section other than allocs, bytes, ns and
// notes, or guards nothing exits 2.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// baselineFile is the schema of BENCH_gates.json: one map per gated column,
// keyed by benchmark name without the -GOMAXPROCS suffix, plus free-text
// notes on how each row was recorded and what regression it exists for.
type baselineFile struct {
	Allocs map[string]float64 `json:"allocs"`
	Bytes  map[string]float64 `json:"bytes"`
	Ns     map[string]float64 `json:"ns"`
	Notes  map[string]string  `json:"notes"`
}

// The allowed fractional increase over baseline, per column.
const (
	// maxAllocsRegress is the precise gate: allocation counts do not
	// depend on the runner's hardware.
	maxAllocsRegress = 0.10
	// maxBytesRegress is wider because bytes follow the runtime's size
	// classes and map layout from one toolchain to the next (about 10%
	// between map implementations on the guarded benchmarks); the
	// regression it exists for, a buffer sized by K, is a multiple, not a
	// percentage.
	maxBytesRegress = 0.25
	// maxNsRegress fails only a reading over 3× its baseline: wall time on
	// shared runners is noisy, and the regressions it exists for read
	// 100× (a dequeue walking every entity per comparison).
	maxNsRegress = 2.00
)

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

// loadBaseline reads and decodes a baseline file. A section outside the
// schema is an error, not ignored: a misspelled section name would otherwise
// turn its gate off without a word. So is a file with no gated entry.
func loadBaseline(path string) (baselineFile, error) {
	var base baselineFile
	f, err := os.Open(path)
	if err != nil {
		return base, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&base); err != nil {
		return base, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(base.Allocs) == 0 && len(base.Bytes) == 0 && len(base.Ns) == 0 {
		return base, errors.New(path + " has no allocs, bytes or ns entries")
	}
	return base, nil
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
// observations in name order, writing verdicts to out/errOut. unit labels the
// metric in messages ("allocs/op", "B/op" or "ns/op"). It returns true when
// any guarded benchmark reads more than maxRegress above or below its row, or
// is missing from the input.
func gate(base, resolved map[string]float64, maxRegress float64, unit string, out, errOut io.Writer) bool {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		want := base[name]
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
		case have < want*(1-maxRegress):
			fmt.Fprintf(errOut, "benchguard: FAIL %s: %.0f %s is more than %.0f%% below baseline %.0f: re-record the row\n",
				name, have, unit, maxRegress*100, want)
			failed = true
		case have < want:
			fmt.Fprintf(out, "benchguard: ok   %s: %.0f %s (improved from baseline %.0f — consider re-recording)\n", name, have, unit, want)
		default:
			fmt.Fprintf(out, "benchguard: ok   %s: %.0f %s (baseline %.0f, limit %.0f)\n", name, have, unit, want, limit)
		}
	}
	return failed
}

// run is the command: it returns 0 when every gate holds, 1 when one fails
// and 2 on a usage, baseline or input error.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_gates.json", "JSON file with allocs (allocs/op), bytes (B/op) and ns (ns/op) maps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	base, err := loadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: %v\n", err)
		return 2
	}
	allocs, bytes, ns, err := parseBench(stdin, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: read stdin: %v\n", err)
		return 2
	}
	failed := false
	for _, g := range []struct {
		base, got  map[string]float64
		maxRegress float64
		unit       string
	}{
		{base.Allocs, allocs, maxAllocsRegress, "allocs/op"},
		{base.Bytes, bytes, maxBytesRegress, "B/op"},
		{base.Ns, ns, maxNsRegress, "ns/op"},
	} {
		resolved := resolveNames(g.got, g.base)
		failed = gate(g.base, resolved, g.maxRegress, g.unit, stdout, stderr) || failed
	}
	if failed {
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
