package benchmark

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// This file turns repetitions into a run: set-up, the timed loop that fills
// --seconds, and the aggregation into the reported metrics.

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload workloadDef
	seed     int64
	seconds  float64
	trace    bool
	// traceDir is where the traced run writes its trace file.
	traceDir string
	// log receives the traced run's notes.
	log io.Writer
}

// metricValue is one reported metric: the median over the run's repetitions
// (or the percentile of its pooled sample), with the quartiles of the
// per-repetition values and the number of samples behind it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// hostFacts are recorded with every result.
type hostFacts struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func host() hostFacts {
	commit := os.Getenv("PIER_BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return hostFacts{Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// runRecord is one run as written to a result file (one JSON object a line)
// and read back by the comparison mode.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Host      hostFacts              `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Refused   int                    `json:"refused"`
	TieCuts   int                    `json:"tie_cuts"`
	Reps      int                    `json:"repetitions"`
	Metrics   map[string]metricValue `json:"metrics"`
	Problems  []string               `json:"problems,omitempty"`
}

// maxCheckFailureShare is the share of attempted operations that may fail an
// output check before a run stops counting as correct; a refused or errored
// Push or Query is never tolerated.
const maxCheckFailureShare = 0.001

// setupRounds is how many times a run sets up; setup_s is their median.
const setupRounds = 3

// quietQuantile is the quantile of a run's pooled checkpoint and restore times
// that checkpoint_s and restore_s report: the lower quartile, not the median.
// A neighbour on this shared host slows memory-bound work by a half for about
// a second at a time, a quarter to a third of the time (README, Noise), so
// the 10-60 ms samples fall in two modes, and all of a repetition's samples
// come within half a second. On a workload with four repetitions a run the
// median leaves the fast mode once two of the four fall in a slow second — one
// run in three — while the lower quartile stays in it until all four do.
const quietQuantile = 0.25

// datasetsPerRun is how many datasets a run generates from its seed. The
// repetitions take them in turn, and a recall metric is the mean over the
// datasets: recall is deterministic for one dataset and moves with the dataset
// by up to 4% (burst-default's ~1 100 ground-truth pairs), which over four
// datasets a run is halved. The times gain too, by the part of their scatter
// that is the dataset's.
const datasetsPerRun = 4

// variant is one of a run's datasets with, for a workload with a
// StorageBudget, the matched pairs of its budget-0 twin, which every timed
// repetition on it must reproduce.
type variant struct {
	in        *inputs
	reference map[uint64]struct{}
}

// setUp generates the run's datasets and runs the discarded warm-up
// repetition on the first. For a workload with a StorageBudget every dataset
// gets a warm-up: its budget-0 twin over the whole stream.
func setUp(w workloadDef, seed int64) ([]variant, error) {
	vs := make([]variant, datasetsPerRun)
	for i := range vs {
		in, err := makeInputs(w, seed*datasetsPerRun+int64(i))
		if err != nil {
			return nil, err
		}
		vs[i].in = in
		twin := w.Options.StorageBudget > 0
		if !twin && i > 0 {
			continue
		}
		warm := *in
		cfg := repConfig{increments: w.WarmupIncrements, seed: seed}
		if twin {
			warm.w.Options.StorageBudget = 0
			cfg.increments = 0
		}
		r, err := runRep(&warm, cfg)
		if err != nil {
			return nil, err
		}
		if twin {
			vs[i].reference = matchedSet(r.matches)
		}
	}
	return vs, nil
}

// measureSetUp sets up setupRounds times and returns the last round's
// products with every round's duration.
func measureSetUp(w workloadDef, seed int64) ([]variant, []float64, error) {
	var (
		vs        []variant
		durations []float64
	)
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		vs, err = setUp(w, seed)
		if err != nil {
			return nil, nil, err
		}
		durations = append(durations, time.Since(t0).Seconds())
	}
	return vs, durations, nil
}

// liveReps repeats the workload, one dataset after the other, until budget
// seconds are used: a repetition starts only while the time left covers a
// typical one, and at least one always runs.
func liveReps(vs []variant, budget float64, instrument bool) ([]*repResult, error) {
	var reps []*repResult
	var spent []float64
	start := time.Now()
	for {
		runtime.GC() // the previous repetition's garbage is not this one's to collect
		t0 := time.Now()
		v := len(reps) % len(vs)
		r, err := runRep(vs[v].in, repConfig{reference: vs[v].reference, instrument: instrument, seed: int64(len(reps)) + 1})
		if err != nil {
			return nil, err
		}
		r.variant = v
		reps = append(reps, r)
		spent = append(spent, time.Since(t0).Seconds())
		if time.Since(start).Seconds()+median(spent) > budget {
			return reps, nil
		}
	}
}

// perRep collects one per-repetition reading.
func perRep(reps []*repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// pooled concatenates one per-repetition sample.
func pooled(reps []*repResult, f func(*repResult) []float64) []float64 {
	var out []float64
	for _, r := range reps {
		out = append(out, f(r)...)
	}
	return out
}

// ofMedian reports the median of per-repetition values.
func ofMedian(unit string, xs []float64) metricValue {
	q1, q2, q3 := quartiles(xs)
	return metricValue{Value: q2, Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

// ofDatasets reports the mean over the run's datasets of the median reading
// on each, with the quartiles of all repetitions' readings.
func ofDatasets(unit string, reps []*repResult, f func(*repResult) float64) metricValue {
	var each [][]float64
	for _, r := range reps {
		for len(each) <= r.variant {
			each = append(each, nil)
		}
		each[r.variant] = append(each[r.variant], f(r))
	}
	medians := make([]float64, len(each)) // repetitions take the datasets in turn: none is skipped
	for i, xs := range each {
		medians[i] = median(xs)
	}
	q1, _, q3 := quartiles(perRep(reps, f))
	return metricValue{Value: mean(medians), Unit: unit, Q1: q1, Q3: q3, N: len(reps)}
}

// ofPercentile reports the q-percentile of the pooled sample, with the
// quartiles of the same percentile taken repetition by repetition.
func ofPercentile(unit string, reps []*repResult, f func(*repResult) []float64, q float64) metricValue {
	all := sorted(pooled(reps, f))
	each := perRep(reps, func(r *repResult) float64 { return percentile(sorted(f(r)), q) })
	q1, _, q3 := quartiles(each)
	return metricValue{Value: percentile(all, q), Unit: unit, Q1: q1, Q3: q3, N: len(all)}
}

// endToEndMetrics aggregates the repetitions into the end-to-end metrics.
func endToEndMetrics(reps []*repResult, setups []float64) map[string]metricValue {
	idle := func(r *repResult) []float64 { return r.queryIdle }
	return map[string]metricValue{
		mSetup:       ofMedian("s", setups),
		mResolveRate: ofMedian("1/s", perRep(reps, func(r *repResult) float64 { return float64(r.profiles) / r.wall.Seconds() })),
		mAUCCmp:      ofDatasets("ratio", reps, func(r *repResult) float64 { return r.aucCmp }),
		mPCFinal:     ofDatasets("ratio", reps, func(r *repResult) float64 { return r.pcFinal }),
		mCheckpoint:  ofPercentile("s", reps, func(r *repResult) []float64 { return r.ckpt }, quietQuantile),
		mRestore:     ofPercentile("s", reps, func(r *repResult) []float64 { return r.restore }, quietQuantile),
		mAUCTime:     ofDatasets("ratio", reps, func(r *repResult) float64 { return r.aucTime }),
		mDrain:       ofMedian("s", perRep(reps, func(r *repResult) float64 { return r.drain.Seconds() })),
		mQueryIdle:   ofPercentile("us", reps, idle, 0.5),
	}
}

// tally sums the repetitions' operation counts into the record.
func (rec *runRecord) tally(reps []*repResult) {
	for _, r := range reps {
		rec.Attempted += r.attempted
		rec.Failed += r.failed
		rec.Refused += r.refused
		rec.TieCuts += r.tieCuts
		for _, p := range r.problems {
			if len(rec.Problems) < 16 {
				rec.Problems = append(rec.Problems, p)
			}
		}
	}
	rec.Reps = len(reps)
	rec.judge()
}

// judge sets Correct from the operation counts.
func (rec *runRecord) judge() {
	rec.Correct = rec.Attempted > 0 && rec.Refused == 0 &&
		float64(rec.Failed) <= maxCheckFailureShare*float64(rec.Attempted)
}

// run executes one invocation and returns its record.
func run(cfg runConfig) (*runRecord, error) {
	rec := &runRecord{
		Workload: cfg.workload.Name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Host: host(),
	}
	vs, setups, err := measureSetUp(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		// One dataset, so that the live repetitions and the replays that
		// decompose them run on the same inputs.
		return rec, tracedRun(cfg, rec, vs[0])
	}
	reps, err := liveReps(vs, cfg.seconds, false)
	if err != nil {
		return nil, err
	}
	rec.tally(reps)
	rec.Metrics = endToEndMetrics(reps, setups)
	return rec, nil
}

// report prints the record's metrics by name with units, in table order.
func report(w io.Writer, rec *runRecord, defs []metricDef) {
	fmt.Fprintf(w, "%s  seed %d  %d repetitions  commit %s  %s  nproc %d  GOMAXPROCS %d\n",
		rec.Workload, rec.Seed, rec.Reps, rec.Host.Commit, rec.Host.GoVersion, rec.Host.NumCPU, rec.Host.GOMAXPROCS)
	for _, d := range defs {
		m, ok := rec.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-6s  q1 %.6g  q3 %.6g  n %d\n", d.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed (%d refused or errored), correct %v\n",
		rec.Attempted, rec.Failed, rec.Refused, rec.Correct)
	if rec.TieCuts > 0 {
		fmt.Fprintf(w, "  note: %d probe answers lost the probed profile to a top-K cut among equal weights\n", rec.TieCuts)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
}
