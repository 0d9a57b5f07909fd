// Benchmarks regenerating the paper's evaluation. One benchmark per table
// and figure runs the corresponding experiment at the Quick preset and prints
// the series the paper plots (who wins, by how much, where curves cross);
// EXPERIMENTS.md records the comparison against the paper. Ablation
// benchmarks probe the design choices called out in DESIGN.md, and micro
// benchmarks measure the public API's end-to-end throughput.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package pier_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"pier"
	"pier/internal/baseline"
	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/experiments"
	"pier/internal/intern"
	"pier/internal/match"
	"pier/internal/metablocking"
	"pier/internal/pool"
	"pier/internal/profile"
	"pier/internal/storage"
	"pier/internal/stream"
)

// printedExperiments tracks which experiment tables have been printed, so
// benchmark re-invocations with larger b.N don't duplicate them.
var printedExperiments sync.Map

// out returns the writer for experiment tables: stdout the first time the
// named experiment runs in this process, discard afterwards (repeat
// iterations only stabilize timing).
func out(name string, i int) io.Writer {
	if i == 0 {
		if _, dup := printedExperiments.LoadOrStore(name, true); !dup {
			return os.Stdout
		}
	}
	return io.Discard
}

func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(out("Table1", i), experiments.Quick())
	}
}

func BenchmarkFig1ApproachComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig1(out("Fig1", i), experiments.Quick())
	}
}

func BenchmarkFig2MotivationGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig2(out("Fig2", i), experiments.Quick())
	}
}

func BenchmarkFig4ProgressivePCOverTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4(out("Fig4", i), experiments.Quick())
	}
}

func BenchmarkFig5PCPerComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5(out("Fig5", i), experiments.Quick())
	}
}

func BenchmarkFig6IncrementSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6(out("Fig6", i), experiments.Quick())
	}
}

func BenchmarkFig7IncrementalFastStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7(out("Fig7", i), experiments.Quick())
	}
}

func BenchmarkFig8VaryingRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8(out("Fig8", i), experiments.Quick())
	}
}

// --- Ablations ---------------------------------------------------------

// ablationRun executes one pipeline configuration per iteration (strategies
// and K policies are stateful, so fresh instances are built each time) and
// reports early (PC at 25% of budget) and eventual quality plus comparisons.
func ablationRun(b *testing.B, mk func() core.Strategy, d *dataset.Dataset, nIncs int, rate float64, kind match.Kind, budget time.Duration, mkK func() *core.AdaptiveK) {
	b.Helper()
	var res *stream.Result
	for i := 0; i < b.N; i++ {
		cfg := stream.DefaultConfig(d.CleanClean, kind, d.GroundTruth)
		cfg.Budget = budget
		if mkK != nil {
			cfg.K = mkK()
		}
		res = stream.Run(mk(), stream.Schedule(d.Increments(nIncs), rate), cfg)
	}
	b.ReportMetric(res.Curve.PCAt(budget/4), "PC@25%")
	b.ReportMetric(res.Curve.FinalPC(), "finalPC")
	b.ReportMetric(float64(res.Comparisons), "cmps")
}

// BenchmarkAblationIPBSRefill compares the literal Algorithm-3 line-9 refill
// rule against its inverted reading (see DESIGN.md).
func BenchmarkAblationIPBSRefill(b *testing.B) {
	d := dataset.Movies(0.04, 1)
	budget := 100 * time.Millisecond
	for _, invert := range []bool{false, true} {
		name := "literal"
		if invert {
			name = "inverted"
		}
		b.Run(name, func(b *testing.B) {
			invert := invert
			mk := func() core.Strategy {
				s := core.NewIPBS(core.DefaultConfig())
				s.InvertRefill = invert
				return s
			}
			ablationRun(b, mk, d, d.NumProfiles()/50, 0, match.ED, budget, nil)
		})
	}
}

// BenchmarkAblationFindK compares the adaptive K policy with fixed batch
// sizes on a fast webdata stream with the expensive matcher under a tight
// budget — the setting where emission batch sizing matters most: an
// oversized fixed K lets emission batches delay ingestion until the stream
// is never consumed, while the adaptive policy converges to a safe small K
// from its default without per-workload tuning.
func BenchmarkAblationFindK(b *testing.B) {
	d := dataset.WebData(0.0008, 1)
	nIncs := d.NumProfiles() / 100
	const rate = 512 // paper-nominal 32 x the calibrated rate scale
	budget := time.Duration(float64(nIncs) / rate * 2.5 * float64(time.Second))
	policies := []struct {
		name string
		mk   func() *core.AdaptiveK
	}{
		{"adaptive", core.NewAdaptiveK},
		{"fixed-32", func() *core.AdaptiveK { return core.NewFixedK(32) }},
		{"fixed-8192", func() *core.AdaptiveK { return core.NewFixedK(8192) }},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			ablationRun(b, func() core.Strategy { return core.NewIPES(core.DefaultConfig()) }, d, nIncs, rate, match.ED, budget, p.mk)
		})
	}
}

// BenchmarkAblationGhostingBeta sweeps the block-ghosting parameter β on the
// movies dataset: aggressive ghosting cuts comparisons at the price of
// eventual quality.
func BenchmarkAblationGhostingBeta(b *testing.B) {
	d := dataset.Movies(0.04, 1)
	for _, beta := range []float64{0, 0.1, 0.2, 0.5, 1.0} {
		b.Run(fmt.Sprintf("beta=%.1f", beta), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Beta = beta
			ablationRun(b, func() core.Strategy { return core.NewIPES(cfg) }, d, d.NumProfiles()/50, 0, match.JS, 100*time.Millisecond, nil)
		})
	}
}

// BenchmarkAblationWeightingScheme swaps the meta-blocking weighting scheme
// inside I-PES on the heterogeneous webdata workload.
func BenchmarkAblationWeightingScheme(b *testing.B) {
	d := dataset.WebData(0.0008, 1)
	for _, scheme := range []metablocking.Scheme{metablocking.CBS, metablocking.JSScheme, metablocking.ECBS, metablocking.ARCS} {
		b.Run(scheme.String(), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Scheme = scheme
			ablationRun(b, func() core.Strategy { return core.NewIPES(cfg) }, d, d.NumProfiles()/100, 0, match.ED, 180*time.Millisecond, nil)
		})
	}
}

// BenchmarkAblationBoundedQueue sweeps the comparison-index capacity of
// I-PCS: too small evicts promising comparisons, unbounded wastes memory on
// hopeless ones.
func BenchmarkAblationBoundedQueue(b *testing.B) {
	d := dataset.Movies(0.04, 1)
	for _, capacity := range []int{1_000, 10_000, 100_000, 0} {
		name := fmt.Sprintf("cap=%d", capacity)
		if capacity == 0 {
			name = "cap=unbounded"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.IndexCapacity = capacity
			ablationRun(b, func() core.Strategy { return core.NewIPCS(cfg) }, d, d.NumProfiles()/50, 0, match.JS, 100*time.Millisecond, nil)
		})
	}
}

// BenchmarkAblationCandidateGeneration compares token-blocking candidate
// generation (I-PCS) against dynamic sorted-neighborhood generation (I-SN,
// the extension strategy) on the typo-heavy census workload.
func BenchmarkAblationCandidateGeneration(b *testing.B) {
	d := dataset.Census(0.002, 1)
	variants := map[string]func() core.Strategy{
		"blocking/I-PCS":    func() core.Strategy { return core.NewIPCS(core.DefaultConfig()) },
		"neighborhood/I-SN": func() core.Strategy { return core.NewISN(core.DefaultConfig(), 0) },
	}
	for name, mk := range variants {
		b.Run(name, func(b *testing.B) {
			ablationRun(b, mk, d, d.NumProfiles()/100, 0, match.JS, 150*time.Millisecond, nil)
		})
	}
}

// BenchmarkAblationBlockFiltering sweeps the block-filtering ratio (block
// cleaning beyond the paper's purging+ghosting) inside I-PES.
func BenchmarkAblationBlockFiltering(b *testing.B) {
	d := dataset.Movies(0.04, 1)
	for _, ratio := range []float64{0, 0.2, 0.5, 0.8} {
		b.Run(fmt.Sprintf("r=%.1f", ratio), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.FilterRatio = ratio
			ablationRun(b, func() core.Strategy { return core.NewIPES(cfg) }, d, d.NumProfiles()/50, 0, match.JS, 100*time.Millisecond, nil)
		})
	}
}

// --- Micro benchmarks ---------------------------------------------------

// BenchmarkResolveThroughput measures end-to-end public-API throughput in
// profiles resolved per second on the dblp-acm workload, per parallelism
// setting: p1 is exact serial execution, p4 fans candidate generation and
// batch matching out over four workers.
func BenchmarkResolveThroughput(b *testing.B) {
	d := dataset.DA(0.1, 1)
	profiles := make([]pier.Profile, len(d.Profiles))
	for i, p := range d.Profiles {
		pr := pier.Profile{Key: p.EntityKey, SourceB: p.Source == 1}
		for _, a := range p.Attributes {
			pr.Attributes = append(pr.Attributes, pier.Attribute{Name: a.Name, Value: a.Value})
		}
		profiles[i] = pr
	}
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("p%d", par), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				_, s, err := pier.Resolve(profiles, pier.Options{CleanClean: true, TickEvery: time.Millisecond, Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
				total += s.Profiles
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "profiles/s")
		})
	}
}

// benchStrategies are the strategies the per-strategy benchmarks build, in
// report order: the three PIER strategies, then the non-progressive I-BASE.
var benchStrategies = []struct {
	name string
	mk   func(core.Config) core.Strategy
}{
	{"I-PCS", func(cfg core.Config) core.Strategy { return core.NewIPCS(cfg) }},
	{"I-PBS", func(cfg core.Config) core.Strategy { return core.NewIPBS(cfg) }},
	{"I-PES", func(cfg core.Config) core.Strategy { return core.NewIPES(cfg) }},
	{"I-BASE", func(cfg core.Config) core.Strategy { return baseline.NewIBase(cfg) }},
}

// BenchmarkStrategyUpdateIndex measures pure index-maintenance cost for each
// PIER strategy on a growing collection: per increment, the profiles are
// blocked, UpdateIndex integrates them (ghosting, candidate generation,
// I-WNP, index routing), and a batch is drained so the index keeps moving —
// but no similarity is ever computed, isolating the stage the candidate-
// generation worker pool parallelizes. p1 is exact serial execution; p4 fans
// the per-profile work out over four workers.
func BenchmarkStrategyUpdateIndex(b *testing.B) {
	d := dataset.Movies(0.08, 1)
	incs := d.Increments(20)
	for _, m := range benchStrategies {
		for _, par := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/p%d", m.name, par), func(b *testing.B) {
				cfg := core.DefaultConfig()
				cfg.Parallelism = par
				for i := 0; i < b.N; i++ {
					s := m.mk(cfg)
					col := blocking.NewCollection(d.CleanClean, stream.DefaultMaxBlockSize)
					for _, inc := range incs {
						for _, p := range inc {
							col.Add(p)
						}
						s.UpdateIndex(col, inc)
						core.EmitBatch(s, 256)
					}
				}
				b.ReportMetric(float64(d.NumProfiles()*b.N)/b.Elapsed().Seconds(), "profiles/s")
			})
		}
	}
}

// BenchmarkStrategyDequeue measures what one emitted comparison costs the
// strategy once the stream has ended: the movies collection of
// BenchmarkStrategyUpdateIndex is indexed with no emission in between (outside
// the timer), then Algorithm 1's drain runs — batches of 512 into one reused
// buffer, an empty-increment tick whenever the index runs dry, until a tick
// finds nothing more. ns/cmp must not follow the size of the index: I-PES
// started a round by walking every entity ever seen, once per low-weight
// comparison, and read ~47 µs/cmp here; I-PBS's row prices its lazy CI heap.
func BenchmarkStrategyDequeue(b *testing.B) {
	d := dataset.Movies(0.08, 1)
	incs := d.Increments(20)
	for _, m := range benchStrategies[:3] { // the PIER strategies
		b.Run(m.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Parallelism = 1
			var buf []metablocking.Comparison
			cmps := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := m.mk(cfg)
				col := blocking.NewCollection(d.CleanClean, stream.DefaultMaxBlockSize)
				for _, inc := range incs {
					for _, p := range inc {
						col.Add(p)
					}
					s.UpdateIndex(col, inc)
				}
				b.StartTimer()
				for {
					if s.Pending() == 0 {
						if s.UpdateIndex(col, nil); s.Pending() == 0 {
							break
						}
					}
					buf = core.AppendBatch(buf[:0], s, 512)
					cmps += len(buf)
				}
			}
			if cmps == 0 {
				b.Fatal("drain emitted no comparisons")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cmps), "ns/cmp")
			b.ReportMetric(float64(cmps)/float64(b.N), "cmps/op")
		})
	}
}

// BenchmarkLiveBurst measures the live batch loop the way a burst drives it:
// the quick preset's census dataset pushed back to back into a serial
// pipeline, then drained by Stop. With -benchmem its B/op is the loop's whole
// allocation bill — ingest, index maintenance, emission and the batch scratch
// — and benchguard gates it. K is fixed at its ceiling and the ticker is off,
// so the batch sequence does not follow findK's clock or the runner's speed,
// and a per-batch allocation sized by K rather than by the batch costs
// 12.8 MB a batch here.
func BenchmarkLiveBurst(b *testing.B) { benchLiveBurst(b, storage.Config{}) }

// BenchmarkLiveBurstSpill is BenchmarkLiveBurst's burst under a
// StorageBudget below its index: the burst's priced index ends at about
// 1.09 MB, and the postings get 3/4 of the 512 KiB budget. Its B/op is the
// spill path's tripwire: a store that decodes and re-encodes whole shards
// per increment, instead of faulting in and rewriting only the blocks an
// increment touches, allocates several times as much.
func BenchmarkLiveBurstSpill(b *testing.B) {
	benchLiveBurst(b, storage.Config{Budget: 512 << 10, Dir: b.TempDir()})
}

// benchLiveBurst pushes the quick preset's census dataset back to back into
// a serial pipeline on the given storage backend and drains it with Stop.
func benchLiveBurst(b *testing.B, scfg storage.Config) {
	d := dataset.Census(experiments.Quick().CensusScale, 1)
	incs := d.Increments(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := stream.LiveRun(core.NewIPCS(core.DefaultConfig()), stream.LiveConfig{
			MaxBlockSize: stream.DefaultMaxBlockSize,
			Matcher:      match.NewMatcher(match.JS),
			K:            core.NewFixedK(core.KMax),
			TickEvery:    time.Hour,
			Parallelism:  1,
			Shards:       1,
			Storage:      scfg,
		})
		for _, inc := range incs {
			if err := l.Push(inc); err != nil {
				b.Fatal(err)
			}
		}
		if res := l.Stop(); res.Comparisons == 0 {
			b.Fatal("run executed no comparisons")
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.NumProfiles()*b.N)/b.Elapsed().Seconds(), "profiles/s")
}

// BenchmarkInternThroughput measures the symbol table on the token stream the
// blocking index actually sees: every token of every movies profile, in
// stream order, interned against one growing table. The mix matters — early
// tokens are all misses (growth path), late tokens mostly hits (read-lock
// fast path) — so the number is the amortized per-token cost of the interned
// index, not a cache-friendly microloop over a fixed vocabulary.
func BenchmarkInternThroughput(b *testing.B) {
	d := dataset.Movies(0.08, 1)
	var toks []string
	for _, p := range d.Profiles {
		for _, a := range p.Attributes {
			toks = append(toks, profile.Tokenize(a.Value)...)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := intern.New(1 << 12)
		buf := make([]intern.Sym, 0, 64)
		for _, tok := range toks {
			buf = append(buf[:0], t.Intern(tok))
		}
		_ = buf
	}
	b.ReportMetric(float64(len(toks)*b.N)/b.Elapsed().Seconds(), "tokens/s")
}

// BenchmarkShardedUpdateIndex measures batch ingest through the sharded index
// at shard counts 1, 4, and 8: per increment, AddBatch fans tokenization and
// shard transitions over four workers, then I-PCS integrates the increment
// and a batch drains. shards=1 is the serial-locked layout; higher counts
// only relieve lock contention, so on a single-core runner parity across
// shard counts is the expected (and asserted-elsewhere) result.
func BenchmarkShardedUpdateIndex(b *testing.B) {
	d := dataset.Movies(0.08, 1)
	incs := d.Increments(20)
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Parallelism = 4
			workers := pool.New(4)
			for i := 0; i < b.N; i++ {
				s := core.NewIPCS(cfg)
				col := blocking.NewCollectionStorage(d.CleanClean, stream.DefaultMaxBlockSize, nil, shards, storage.Config{})
				for _, inc := range incs {
					col.AddBatch(inc, workers)
					s.UpdateIndex(col, inc)
					core.EmitBatch(s, 256)
				}
			}
			b.ReportMetric(float64(d.NumProfiles()*b.N)/b.Elapsed().Seconds(), "profiles/s")
		})
	}
}

// benchCheckpointPipeline builds a public-API pipeline, resolves the DA
// dataset through it, and leaves it stopped: the snapshot taken from it
// covers a settled blocking index, dedup set, estimator state, and profile
// registry — the realistic payload of a periodic production checkpoint.
func benchCheckpointPipeline(b *testing.B) *pier.Pipeline {
	b.Helper()
	d := dataset.DA(0.1, 7)
	p, err := pier.NewPipeline(pier.Options{CleanClean: true, TickEvery: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	for _, inc := range d.Increments(20) {
		pub := make([]pier.Profile, 0, len(inc))
		for _, dp := range inc {
			pr := pier.Profile{Key: dp.EntityKey, SourceB: dp.Source == 1}
			for _, a := range dp.Attributes {
				pr.Attributes = append(pr.Attributes, pier.Attribute{Name: a.Name, Value: a.Value})
			}
			pub = append(pub, pr)
		}
		if err := p.Push(pub); err != nil {
			b.Fatal(err)
		}
	}
	p.Stop()
	return p
}

// BenchmarkCheckpointSave measures snapshot serialization throughput: how
// fast Checkpoint drains the full pipeline state to a writer. The per-call
// cost bounds how often a deployment can afford -checkpoint-every.
func BenchmarkCheckpointSave(b *testing.B) {
	p := benchCheckpointPipeline(b)
	var buf bytes.Buffer
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		n, err := p.Checkpoint(&buf)
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	b.ReportMetric(float64(total)/float64(b.N), "snapshot-bytes")
	b.ReportMetric(float64(total)/b.Elapsed().Seconds()/1e6, "MB/s")
}

// BenchmarkCheckpointRestore measures the recovery path: decode a snapshot,
// rebuild the index and queues, and start a live pipeline from it. This is
// the time-to-recovery after a crash, excluding re-reading the input.
func BenchmarkCheckpointRestore(b *testing.B) {
	p := benchCheckpointPipeline(b)
	var snap bytes.Buffer
	if _, err := p.Checkpoint(&snap); err != nil {
		b.Fatal(err)
	}
	raw := snap.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := pier.Restore(bytes.NewReader(raw), pier.Options{CleanClean: true, TickEvery: time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		r.Stop()
	}
}

// BenchmarkFallibleOverhead compares a live run with the plain matcher
// against the same run routed through the fallible envelope with no faults
// injected: the difference is the steady-state price of the retry/timeout/
// breaker machinery (DESIGN.md §9 targets < 3% on profiles/s). The
// "fallible" variant is the default policy, whose per-attempt timeout runs
// the matcher on its own goroutine; "fallible-no-timeout" disables the
// timeout and keeps the call inline, isolating the bookkeeping cost alone.
func BenchmarkFallibleOverhead(b *testing.B) {
	d := dataset.DA(0.1, 9)
	incs := d.Increments(20)
	run := func(b *testing.B, cm match.ContextMatcher) {
		for i := 0; i < b.N; i++ {
			l := stream.LiveRun(core.NewIPES(core.DefaultConfig()), stream.LiveConfig{
				CleanClean:     d.CleanClean,
				MaxBlockSize:   stream.DefaultMaxBlockSize,
				Matcher:        match.NewMatcher(match.JS),
				TickEvery:      time.Millisecond,
				ContextMatcher: cm,
			})
			for _, inc := range incs {
				l.Push(inc)
			}
			res := l.Stop()
			if res.Comparisons == 0 {
				b.Fatal("run executed no comparisons")
			}
			if err := l.Err(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(d.NumProfiles()*b.N)/b.Elapsed().Seconds(), "profiles/s")
	}
	b.Run("direct", func(b *testing.B) { run(b, nil) })
	b.Run("fallible", func(b *testing.B) {
		m := match.NewMatcher(match.JS)
		run(b, match.NewFallible(match.Infallible(m), match.DefaultFallibleConfig()))
	})
	b.Run("fallible-no-timeout", func(b *testing.B) {
		m := match.NewMatcher(match.JS)
		cfg := match.DefaultFallibleConfig()
		cfg.Timeout = 0
		run(b, match.NewFallible(match.Infallible(m), cfg))
	})
}
