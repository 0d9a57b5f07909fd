package benchmark

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// This file is the comparison mode: two result files (one run a line, as
// --out writes them) in, one verdict per end-to-end metric and workload out.
// It applies the bounds fixed in the tables — the rule cmd/benchguard's 3x
// tripwire is to be replaced by.

type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// comparison is one row: a metric on a workload, base against change.
type comparison struct {
	Workload, Metric string
	Base, Change     []float64 // one value per run
	BaseMedian       float64
	ChangeMedian     float64
	// Worse is the relative amount by which the change's median is worse than
	// the base's (negative when it is better).
	Worse float64
	// Spread is the wider of the two sides' interquartile spreads.
	Spread  float64
	Bound   float64
	Verdict verdict
}

// beats reports whether a is better than b for the metric's direction.
func beats(higherIsBetter bool, a, b float64) bool {
	if higherIsBetter {
		return a > b
	}
	return a < b
}

// everyRunBeats reports whether every value of xs beats every value of ys.
func everyRunBeats(higherIsBetter bool, xs, ys []float64) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !beats(higherIsBetter, x, y) {
				return false
			}
		}
	}
	return len(xs) > 0 && len(ys) > 0
}

// compareMetric judges one metric on one workload. The median may get worse
// by the bound before the change counts as a regression, and must get better
// by it to count as an improvement. When either side's run-to-run quartile
// spread is wider than the bound the runs cannot tell — the row is
// unresolved — unless every run of one side beats every run of the other.
func compareMetric(def metricDef, workload string, base, change []float64) comparison {
	higher := def.Better == "higher"
	c := comparison{
		Workload: workload, Metric: def.Name, Base: base, Change: change,
		BaseMedian: median(base), ChangeMedian: median(change), Bound: def.Bound,
		Spread: math.Max(spread(base), spread(change)),
	}
	if c.BaseMedian != 0 {
		c.Worse = (c.ChangeMedian - c.BaseMedian) / math.Abs(c.BaseMedian)
		if higher {
			c.Worse = -c.Worse
		}
	}
	changeWins := everyRunBeats(higher, change, base)
	baseWins := everyRunBeats(higher, base, change)
	switch {
	case c.Spread > c.Bound && !changeWins && !baseWins:
		c.Verdict = unresolved
	case c.Worse > c.Bound:
		c.Verdict = regressed
	case c.Worse < -c.Bound:
		c.Verdict = improved
	default:
		c.Verdict = unchanged
	}
	return c
}

// readRecords reads a result file.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// valuesOf collects one end-to-end metric's value from every untraced run of
// a workload.
func valuesOf(recs []runRecord, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareRecords builds every row both files have runs for, in table order.
func compareRecords(base, change []runRecord) []comparison {
	var rows []comparison
	for _, w := range workloads {
		for _, def := range endToEnd {
			b, c := valuesOf(base, w.Name, def.Name), valuesOf(change, w.Name, def.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			rows = append(rows, compareMetric(def, w.Name, b, c))
		}
	}
	return rows
}

func printComparison(w io.Writer, rows []comparison) {
	fmt.Fprintf(w, "%-14s %-24s %14s %14s %9s %8s %7s %5s  %s\n",
		"workload", "metric", "base", "change", "worse", "spread", "bound", "runs", "verdict")
	for _, c := range rows {
		fmt.Fprintf(w, "%-14s %-24s %14.6g %14.6g %+8.2f%% %7.2f%% %6.1f%% %2d/%-2d  %s\n",
			c.Workload, c.Metric, c.BaseMedian, c.ChangeMedian, 100*c.Worse, 100*c.Spread, 100*c.Bound,
			len(c.Base), len(c.Change), c.Verdict)
	}
}

// compareMain prints one row per metric and workload and exits 1 when any row
// regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: --compare takes two result files: base, then change")
		return 2
	}
	var sides [2][]runRecord
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		sides[i] = recs
	}
	rows := compareRecords(sides[0], sides[1])
	if len(rows) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s and %s share no workload's runs\n", args[0], args[1])
		return 2
	}
	printComparison(os.Stdout, rows)
	for _, c := range rows {
		if c.Verdict == regressed {
			return 1
		}
	}
	return 0
}
