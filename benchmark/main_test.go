package benchmark

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The benchmark is a `go test -c` binary: every file that imports
// pier/internal/... is a _test.go file, which internal/arch's import-graph
// rules leave alone. run.sh builds the binary and hands it the driver's
// arguments; TestMain runs the benchmark when any of them is present and the
// package's own tests otherwise.
var (
	flagWorkload = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	flagSeed     = flag.Int64("seed", 1, "seed the inputs are generated from")
	flagSeconds  = flag.Float64("seconds", runSeconds, "how long the run measures")
	flagTrace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
	flagAll      = flag.Bool("all", false, "run every workload, untraced then traced, and print every metric")
	flagOut      = flag.String("out", "", "append each run's record to this result file (one JSON object a line)")
	flagCompare  = flag.Bool("compare", false, "compare two result files given as arguments")
	flagPrint    = flag.Bool("print-benchmark-json", false, "print BENCHMARK.json from the harness tables")
)

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(dispatch(m))
}

func dispatch(m *testing.M) int {
	switch {
	case *flagPrint:
		os.Stdout.Write(benchmarkJSON())
		return 0
	case *flagCompare:
		return compareMain(flag.Args())
	case *flagAll:
		return allMain()
	case *flagWorkload != "":
		return oneMain()
	default:
		return m.Run()
	}
}

// traceDir is where a traced run writes its trace file, relative to the
// checkout's root, which run.sh makes the working directory.
var traceDir = filepath.Join(".bench_build", "traces")

// result is the last line of a run's standard output, in the driver's shape.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runAndReport runs one (workload, trace) pair, prints its report, appends
// its record to the result file, and returns the record.
func runAndReport(w workloadDef, trace bool) (*runRecord, error) {
	rec, err := run(runConfig{workload: w, seed: *flagSeed, seconds: *flagSeconds, trace: trace, traceDir: traceDir, log: os.Stdout})
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	report(os.Stdout, rec, defs)
	for _, d := range defs {
		if _, ok := rec.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", w.Name, d.Name)
		}
	}
	if *flagOut != "" {
		f, err := os.OpenFile(*flagOut, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		line, err := json.Marshal(rec)
		if err == nil {
			_, err = f.Write(append(line, '\n'))
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("writing %s: %w", *flagOut, err)
		}
	}
	return rec, nil
}

// oneMain is the driver's entry: one workload, one mode, the result object as
// the last line of standard output.
func oneMain() int {
	w, ok := workloadByName(*flagWorkload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *flagWorkload)
		return 2
	}
	if *flagSeconds <= 0 || (*flagTrace != 0 && *flagTrace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	rec, err := runAndReport(w, *flagTrace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	out := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: make(map[string]resultMetric)}
	for name, m := range rec.Metrics {
		out.Metrics[name] = resultMetric{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

// allMain is the one command that prints every metric of every workload.
func allMain() int {
	status := 0
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec, err := runAndReport(w, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !rec.Correct {
				status = 1
			}
		}
	}
	return status
}
