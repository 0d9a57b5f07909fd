package benchmark

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smokeScale is the size the package's own test runs every workload at.
const smokeScale = 1.0 / 20

// TestSmoke runs every workload once at a twentieth of its size, untraced and
// traced, with every output check on: seconds, not minutes. Full-size runs
// happen only through run.sh.
func TestSmoke(t *testing.T) {
	for _, full := range workloads {
		w := full.scaled(smokeScale)
		for _, trace := range []bool{false, true} {
			name := w.Name + "/untraced"
			defs := endToEnd
			if trace {
				name, defs = w.Name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				rec, err := run(runConfig{workload: w, seed: 1, seconds: 0.1, trace: trace, traceDir: dir, log: io.Discard})
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Errorf("correct %v, %d of %d operations failed: %v", rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
				}
				for _, d := range defs {
					m, ok := rec.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
					} else if m.Unit != d.Unit {
						t.Errorf("metric %s reported in %q, table says %q", d.Name, m.Unit, d.Unit)
					}
				}
				if len(rec.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, table lists %d", len(rec.Metrics), len(defs))
				}
				if trace {
					if _, err := os.Stat(filepath.Join(dir, w.Name+".trace.json")); err != nil {
						t.Errorf("trace file: %v", err)
					}
					return
				}
				for _, d := range endToEnd {
					if rec.Metrics[d.Name].Value <= 0 {
						t.Errorf("end-to-end metric %s = %v; the contract wants it never 0", d.Name, rec.Metrics[d.Name].Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONIsPrintedFromTheTables keeps BENCHMARK.json byte-equal to
// what the tables print and inside the limits the benchmark contract sets.
func TestBenchmarkJSONIsPrintedFromTheTables(t *testing.T) {
	// `go test` runs in the package directory, run.sh in the checkout's root.
	onDisk, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		onDisk, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the harness tables; regenerate it with: bash benchmark/run.sh --print-benchmark-json > BENCHMARK.json")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(onDisk))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if s, ok := metricByName(endToEnd, mSetup); !ok || s.Unit != "s" || s.Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
}
