package pier_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pier"
	"pier/internal/blocking"
	"pier/internal/cluster"
	"pier/internal/core"
	"pier/internal/snapshot"
	"pier/internal/storage"
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

// gobBytes returns the gob encoding of v.
func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// withLiveSection returns snap with the named section of its live
// checkpoint replaced by edit's rewrite of it; every other section is copied
// byte for byte.
func withLiveSection(t *testing.T, snap []byte, section string, edit func([]byte) []byte) []byte {
	t.Helper()
	sr, err := snapshot.NewReader(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := sr.Flat("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	live, err := sr.Flat("live")
	if err != nil {
		t.Fatal(err)
	}
	lr, err := snapshot.NewReader(bytes.NewReader(live))
	if err != nil {
		t.Fatal(err)
	}
	var liveOut bytes.Buffer
	lw, err := snapshot.NewWriter(&liveOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"meta", "collection", "strategy", "findk", "clusters", "recorder", "accounting"} {
		b, err := lr.Flat(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == section {
			b = edit(b)
		}
		lw.Flat(name, b)
	}
	var out bytes.Buffer
	w, err := snapshot.NewWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	w.Flat("pipeline", pipe)
	if err := w.Flat("live", liveOut.Bytes()); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// replaceWith is a withLiveSection edit that replaces a section by body.
func replaceWith(body []byte) func([]byte) []byte {
	return func([]byte) []byte { return body }
}

// TestRestoreRejectsBadClusters rewrites a checkpoint's clusters section:
// a parent cycle used to hang Stop, and a member the profile registry does
// not hold used to panic it. Restore must reject each with an error instead,
// within a deadline.
func TestRestoreRejectsBadClusters(t *testing.T) {
	profiles, _ := moviePairs()
	opt := pier.Options{Algorithm: pier.IPES, CleanClean: true}
	p, err := pier.NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Push(profiles); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	var snap bytes.Buffer
	if _, err := p.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	n := len(profiles)
	for _, tc := range []struct {
		name string
		st   cluster.State
	}{
		{"cycle", cluster.State{Parent: map[int]int{0: 1, 1: 0}, Size: map[int]int{0: 2}, Clusters: 1}},
		{"negative member", cluster.State{Parent: map[int]int{-3: -3, 1: -3}, Size: map[int]int{-3: 2}, Clusters: 1}},
		{"unassigned member", cluster.State{Parent: map[int]int{0: 0, n: 0}, Size: map[int]int{0: 2}, Clusters: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := withLiveSection(t, snap.Bytes(), "clusters", replaceWith(gobBytes(t, &tc.st)))
			done := make(chan error, 1)
			go func() {
				r, err := pier.Restore(bytes.NewReader(bad), opt)
				if err == nil {
					r.Stop()
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("Restore accepted the damaged clusters section")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Restore and Stop did not return within 10s")
			}
		})
	}
	// The same rewrite with the checkpoint's own image restores, so the
	// failures above are the clusters' doing.
	good := cluster.State{Parent: map[int]int{0: 0, 1: 0}, Size: map[int]int{0: 2}, Clusters: 1}
	r, err := pier.Restore(bytes.NewReader(withLiveSection(t, snap.Bytes(), "clusters", replaceWith(gobBytes(t, &good)))), opt)
	if err != nil {
		t.Fatalf("a well-formed clusters section does not restore: %v", err)
	}
	r.Stop()
}

// gobUint is gob's encoding of an unsigned integer: one byte below 128,
// else the negated byte count and the big-endian bytes.
func gobUint(u uint64) []byte {
	if u < 128 {
		return []byte{byte(u)}
	}
	b := bytes.TrimLeft(binary.BigEndian.AppendUint64(nil, u), "\x00")
	return append([]byte{byte(256 - len(b))}, b...)
}

// readGobUint decodes the gob unsigned integer at the start of b and returns
// it with its width.
func readGobUint(b []byte) (uint64, int) {
	if b[0] < 128 {
		return uint64(b[0]), 1
	}
	n := 256 - int(b[0])
	var u uint64
	for _, c := range b[1 : 1+n] {
		u = u<<8 | uint64(c)
	}
	return u, 1 + n
}

// hugeMap gob-encodes v, a struct whose one map field holds the one entry
// key, and rewrites the map's entry count to claim 1<<22 entries while the
// stream still carries one.
func hugeMap(t *testing.T, v any, key []byte) []byte {
	t.Helper()
	enc := gobBytes(t, v)
	at := bytes.Index(enc, append([]byte{1}, key...))
	if at < 0 || bytes.Index(enc[at+1:], append([]byte{1}, key...)) >= 0 {
		t.Fatalf("map count of %v not found once in %x", v, enc)
	}
	count := gobUint(1 << 22)
	for off := 0; off < len(enc); {
		n, w := readGobUint(enc[off:])
		end := off + w + int(n)
		if at >= end {
			off = end
			continue
		}
		out := append(bytes.Clone(enc[:off]), gobUint(n+uint64(len(count)-1))...)
		out = append(out, enc[off+w:at]...)
		out = append(out, count...)
		return append(out, enc[at+1:]...)
	}
	t.Fatal("map count outside every gob message")
	return nil
}

// TestGobImagesBoundMapAllocation feeds every gob image that holds a map a
// count claiming 1<<22 entries in a stream that carries one. gob sizes a
// nil map by that count before reading an entry; decoding must instead fail
// for want of bytes, having allocated little. A full-length claim, as a
// fuzzed checkpoint made, exhausted memory.
func TestGobImagesBoundMapAllocation(t *testing.T) {
	intKey := gobUint(0x0A0B0C0D << 1) // gob zigzags a signed key
	symKey := gobUint(0x0A0B0C0D)
	profiles, _ := moviePairs()
	opt := pier.Options{Algorithm: pier.IPES, CleanClean: true}
	p, err := pier.NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Push(profiles); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	var snap bytes.Buffer
	if _, err := p.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"I-PBS CI", func() error {
			return core.NewIPBS(cfg).LoadState(bytes.NewReader(hugeMap(t, &struct{ CI map[uint32]int }{map[uint32]int{0x0A0B0C0D: 1}}, symKey)))
		}},
		{"I-PBS PI", func() error {
			return core.NewIPBS(cfg).LoadState(bytes.NewReader(hugeMap(t, &struct{ PI map[uint32][]int }{map[uint32][]int{0x0A0B0C0D: {1}}}, symKey)))
		}},
		{"I-PES EPQ", func() error {
			type entity struct{ InsCount int }
			return core.NewIPES(cfg).LoadState(bytes.NewReader(hugeMap(t, &struct{ EPQ map[int]entity }{map[int]entity{0x0A0B0C0D: {1}}}, intKey)))
		}},
		{"v3 collection", func() error {
			_, err := blocking.DecodeGobImage(bytes.NewReader(hugeMap(t, &struct{ OfProf map[int][]uint32 }{map[int][]uint32{0x0A0B0C0D: {1}}}, intKey)), nil, 1, storage.Config{})
			return err
		}},
		{"clusters", func() error {
			bad := hugeMap(t, &struct{ Parent map[int]int }{map[int]int{0x0A0B0C0D: 1}}, intKey)
			_, err := pier.Restore(bytes.NewReader(withLiveSection(t, snap.Bytes(), "clusters", replaceWith(bad))), opt)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.decode()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Error("a map claiming 1<<22 entries in a one-entry stream decoded")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
				t.Errorf("decoding allocated %d MiB", grew>>20)
			}
		})
	}
}

// TestCheckpointUncheckpointableAlgorithm: baseline strategies and AUTO
// carry no persistence; Checkpoint must fail loudly, not write a partial
// snapshot.
func TestCheckpointUncheckpointableAlgorithm(t *testing.T) {
	for _, alg := range []pier.Algorithm{pier.BatchER, pier.Auto} {
		p, err := pier.NewPipeline(pier.Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if _, err := p.Checkpoint(&snap); err == nil {
			t.Errorf("Checkpoint of %s succeeded", alg)
		}
		p.Stop()
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
