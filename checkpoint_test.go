package pier_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pier"
)

// TestCheckpointRestoreResumesRun feeds half a workload, checkpoints the
// running pipeline, restores it into a fresh one, feeds the rest, and checks
// the recovered totals and clusters equal an uninterrupted run's.
func TestCheckpointRestoreResumesRun(t *testing.T) {
	profiles, _ := moviePairs()
	opt := pier.Options{Algorithm: pier.IPES, CleanClean: true, CheckInvariants: true}
	half := len(profiles) / 2

	full, err := pier.NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range profiles {
		if err := full.Push([]pier.Profile{pr}); err != nil {
			t.Fatal(err)
		}
	}
	want := full.Stop()

	p, err := pier.NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range profiles[:half] {
		if err := p.Push([]pier.Profile{pr}); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	n, err := p.Checkpoint(&snap)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if n <= 0 || int(n) != snap.Len() {
		t.Fatalf("Checkpoint reported %d bytes, buffer holds %d", n, snap.Len())
	}
	p.Stop() // the checkpointed original is independent of the restored copy

	var mu sync.Mutex
	reported := 0
	ropt := opt
	ropt.OnMatch = func(pier.Match) { mu.Lock(); reported++; mu.Unlock() }
	r, err := pier.Restore(&snap, ropt)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for _, pr := range profiles[half:] {
		if err := r.Push([]pier.Profile{pr}); err != nil {
			t.Fatal(err)
		}
	}
	got := r.Stop()

	if got.Profiles != want.Profiles || got.Comparisons != want.Comparisons ||
		got.Matches != want.Matches || got.NewLinks != want.NewLinks {
		t.Errorf("recovered summary %+v, want %+v", got, want)
	}
	if len(r.Clusters()) != len(full.Clusters()) {
		t.Errorf("recovered %d clusters, want %d", len(r.Clusters()), len(full.Clusters()))
	}
	// Match reporting after restore resolves profile IDs through the
	// restored registry; every post-restore match must have been reported.
	mu.Lock()
	defer mu.Unlock()
	if reported == 0 {
		t.Error("no matches reported after restore")
	}
}

// TestCheckpointFileRoundTrip checkpoints to a real file — the deployment
// path, not an in-memory buffer — and restores from it twice: once onto the
// default in-memory backend and once onto the disk-spill backend
// (StorageBudget small enough to force spilling on this workload). Both
// restored pipelines must finish with the uninterrupted run's exact totals:
// the storage backend is a residency knob, never a semantic one.
func TestCheckpointFileRoundTrip(t *testing.T) {
	profiles, _ := moviePairs()
	opt := pier.Options{Algorithm: pier.IPES, CleanClean: true, CheckInvariants: true}
	half := len(profiles) / 2

	full, err := pier.NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range profiles {
		if err := full.Push([]pier.Profile{pr}); err != nil {
			t.Fatal(err)
		}
	}
	want := full.Stop()

	p, err := pier.NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range profiles[:half] {
		if err := p.Push([]pier.Profile{pr}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "run.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.Checkpoint(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("checkpoint to %s: %v", path, err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != n {
		t.Fatalf("checkpoint reported %d bytes, file holds %v (stat err %v)", n, fi, err)
	}
	p.Stop()

	for _, budget := range []int64{0, 4 << 10} {
		rf, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		ropt := opt
		ropt.StorageBudget = budget
		r, err := pier.Restore(rf, ropt)
		rf.Close()
		if err != nil {
			t.Fatalf("restore (budget=%d): %v", budget, err)
		}
		for _, pr := range profiles[half:] {
			if err := r.Push([]pier.Profile{pr}); err != nil {
				t.Fatal(err)
			}
		}
		got := r.Stop()
		if !sameSummary(got, want) {
			t.Errorf("restored run (budget=%d) finished with %+v, want %+v", budget, got, want)
		}
		if err := r.Close(); err != nil {
			t.Errorf("close restored pipeline (budget=%d): %v", budget, err)
		}
	}
}

// sameSummary compares summaries up to wall-clock time.
func sameSummary(a, b pier.Summary) bool {
	return a.Profiles == b.Profiles && a.Comparisons == b.Comparisons &&
		a.Matches == b.Matches && a.NewLinks == b.NewLinks
}

// TestRestoreV2Fixture restores the committed format-v2 snapshot
// (testdata/checkpoint_v2.snap, written by genfixture.go from the first half
// of the movie workload) on both storage backends and finishes the run. The
// fixture pins on-disk compatibility: a change that breaks reading existing
// v2 checkpoints — a struct rename the gob decoder can't map, a container
// tweak without a version bump — fails here, not in a user's recovery path.
func TestRestoreV2Fixture(t *testing.T) {
	profiles, _ := moviePairs()
	opt := pier.Options{Algorithm: pier.IPES, CleanClean: true, CheckInvariants: true}

	full, err := pier.NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range profiles {
		if err := full.Push([]pier.Profile{pr}); err != nil {
			t.Fatal(err)
		}
	}
	want := full.Stop()

	for _, budget := range []int64{0, 4 << 10} {
		f, err := os.Open(filepath.Join("testdata", "checkpoint_v2.snap"))
		if err != nil {
			t.Fatal(err)
		}
		ropt := opt
		ropt.StorageBudget = budget
		r, err := pier.Restore(f, ropt)
		f.Close()
		if err != nil {
			t.Fatalf("restore v2 fixture (budget=%d): %v", budget, err)
		}
		for _, pr := range profiles[len(profiles)/2:] {
			if err := r.Push([]pier.Profile{pr}); err != nil {
				t.Fatal(err)
			}
		}
		got := r.Stop()
		if !sameSummary(got, want) {
			t.Errorf("fixture run (budget=%d) finished with %+v, want %+v", budget, got, want)
		}
		if err := r.Close(); err != nil {
			t.Errorf("close fixture pipeline (budget=%d): %v", budget, err)
		}
	}
}

// TestRestoreV3Fixture is TestRestoreV2Fixture for the committed format-v3
// snapshot (testdata/checkpoint_v3.snap, written by genfixture.go at the last
// v3 build from the same half of the movie workload). Version 4 made three
// sections flat; v3 images keep restoring through the gob image types, which
// are decode-only since.
func TestRestoreV3Fixture(t *testing.T) {
	profiles, _ := moviePairs()
	opt := pier.Options{Algorithm: pier.IPES, CleanClean: true, CheckInvariants: true}

	full, err := pier.NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range profiles {
		if err := full.Push([]pier.Profile{pr}); err != nil {
			t.Fatal(err)
		}
	}
	want := full.Stop()

	snap, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v3.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(snap[8:]); v != 3 {
		t.Fatalf("fixture is format v%d, want v3", v)
	}
	for _, budget := range []int64{0, 4 << 10} {
		ropt := opt
		ropt.StorageBudget = budget
		r, err := pier.Restore(bytes.NewReader(snap), ropt)
		if err != nil {
			t.Fatalf("restore v3 fixture (budget=%d): %v", budget, err)
		}
		for _, pr := range profiles[len(profiles)/2:] {
			if err := r.Push([]pier.Profile{pr}); err != nil {
				t.Fatal(err)
			}
		}
		got := r.Stop()
		if !sameSummary(got, want) {
			t.Errorf("fixture run (budget=%d) finished with %+v, want %+v", budget, got, want)
		}
		if err := r.Close(); err != nil {
			t.Errorf("close fixture pipeline (budget=%d): %v", budget, err)
		}
	}
}

// TestRestoreRejectsMismatchedOptions: a snapshot only restores into the
// configuration that wrote it.
func TestRestoreRejectsMismatchedOptions(t *testing.T) {
	profiles, _ := moviePairs()
	opt := pier.Options{Algorithm: pier.IPCS, CleanClean: true}
	p, err := pier.NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Push(profiles); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := p.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	p.Stop()

	wrong := opt
	wrong.Algorithm = pier.IPES
	if _, err := pier.Restore(bytes.NewReader(snap.Bytes()), wrong); err == nil || !strings.Contains(err.Error(), "strategy") {
		t.Errorf("Restore with wrong algorithm: err = %v", err)
	}
	if _, err := pier.Restore(bytes.NewReader([]byte("garbage")), opt); err == nil {
		t.Error("Restore from garbage succeeded")
	}
}

// TestCheckpointUncheckpointableAlgorithm: baseline strategies carry no
// persistence; Checkpoint must fail loudly, not write a partial snapshot.
func TestCheckpointUncheckpointableAlgorithm(t *testing.T) {
	p, err := pier.NewPipeline(pier.Options{Algorithm: pier.BatchER})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	var snap bytes.Buffer
	if _, err := p.Checkpoint(&snap); err == nil {
		t.Fatal("Checkpoint of a baseline strategy succeeded")
	}
}

// TestCustomFallibleMatcher runs the public fault envelope end to end: a
// matcher that fails transiently on every first attempt per pair must still
// produce the same matches as the built-in Jaccard matcher.
func TestCustomFallibleMatcher(t *testing.T) {
	profiles, _ := moviePairs()
	_, clean, err := pier.Resolve(profiles, pier.Options{CleanClean: true})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	seen := map[[2]string]bool{}
	failures := 0
	jac := func(x, y pier.Profile) bool {
		// The reference similarity, via the library's own classifier on a
		// tiny two-profile resolve, would be circular; re-implement token
		// Jaccard >= 0.5 directly.
		toks := func(p pier.Profile) map[string]bool {
			m := map[string]bool{}
			for _, a := range p.Attributes {
				for _, tok := range strings.Fields(strings.ToLower(a.Value)) {
					m[strings.Trim(tok, ".,():")] = true
				}
			}
			return m
		}
		tx, ty := toks(x), toks(y)
		inter := 0
		for tok := range tx {
			if ty[tok] {
				inter++
			}
		}
		union := len(tx) + len(ty) - inter
		return union > 0 && float64(inter)/float64(union) >= 0.5
	}
	matcher := func(ctx context.Context, x, y pier.Profile) (bool, error) {
		mu.Lock()
		key := [2]string{x.Key, y.Key}
		first := !seen[key]
		seen[key] = true
		if first {
			failures++
		}
		mu.Unlock()
		if first {
			return false, errors.New("transient outage")
		}
		return jac(x, y), nil
	}
	matches, faulty, err := pier.Resolve(profiles, pier.Options{
		CleanClean:   true,
		Matcher:      matcher,
		MatchRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if failures == 0 {
		t.Fatal("matcher never failed; test is vacuous")
	}
	if faulty.Comparisons != clean.Comparisons {
		t.Errorf("fallible run executed %d comparisons, built-in run %d", faulty.Comparisons, clean.Comparisons)
	}
	if len(matches) == 0 {
		t.Error("fallible matcher found no duplicates")
	}
}

// FuzzRestore feeds pier.Restore damaged checkpoints, seeded with the v2 and
// v3 fixtures, a v4 checkpoint written here, and truncations of each. Every
// input must either fail with an error or restore a pipeline that then stops;
// none may panic.
func FuzzRestore(f *testing.F) {
	snap, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v2.snap"))
	if err != nil {
		f.Fatal(err)
	}
	v3, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v3.snap"))
	if err != nil {
		f.Fatal(err)
	}
	profiles, _ := moviePairs()
	w, err := pier.NewPipeline(pier.Options{Algorithm: pier.IPES, CleanClean: true})
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Push(profiles[:len(profiles)/2]); err != nil {
		f.Fatal(err)
	}
	var v4 bytes.Buffer
	if _, err := w.Checkpoint(&v4); err != nil {
		f.Fatal(err)
	}
	w.Stop()
	for _, seed := range [][]byte{snap, v3, v4.Bytes()} {
		f.Add(seed)
		for _, n := range []int{0, 8, 64, len(seed) / 4, len(seed) / 2, len(seed) - 1} {
			f.Add(seed[:n])
		}
	}
	// One flipped bit in the pipeline section decodes to an empty profile
	// registry beside a stream that ingested profiles; Restore used to
	// accept it, and Stop then panicked resolving cluster members.
	flipped := bytes.Clone(snap)
	flipped[253] ^= 1
	f.Add(flipped)
	opt := pier.Options{Algorithm: pier.IPES, CleanClean: true}
	p, err := pier.Restore(bytes.NewReader(snap), opt)
	if err != nil {
		f.Fatalf("the intact fixture does not restore: %v", err)
	}
	p.Stop()
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := pier.Restore(bytes.NewReader(data), opt)
		if err != nil {
			return
		}
		p.Stop()
	})
}
