package stream

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/match"
	"pier/internal/snapshot"
	"pier/internal/storage"
)

// liveSections are the sections of a Live checkpoint, in writing order.
var liveSections = []string{"meta", "collection", "strategy", "findk", "clusters", "recorder", "accounting"}

// section returns the body of the named section of a Live checkpoint.
func section(t *testing.T, snap []byte, name string) []byte {
	t.Helper()
	sr, err := snapshot.NewReader(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range liveSections {
		if s == name {
			body, err := sr.Flat(name)
			if err != nil {
				t.Fatal(err)
			}
			return body
		}
		if err := sr.Section(s, func(io.Reader) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("no section %q", name)
	return nil
}

// checkpoint writes l's checkpoint and returns it.
func checkpoint(t *testing.T, l *Live) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := l.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestCollectionImageSameUnderSpill runs one stream at budget 0 and under a
// spill budget: the collection sections of their checkpoints are byte for
// byte the same, because a spilled block's image is the bytes its segment
// stores and a resident block is encoded by the same codec.
func TestCollectionImageSameUnderSpill(t *testing.T) {
	mem, _ := spillRun(t, storage.Config{}, nil)
	spill, _ := spillRun(t, storage.Config{Budget: 4 << 10, Dir: t.TempDir()}, nil)
	defer spill.Close()
	if spill.st.col.StorageStats().SegmentWrites == 0 {
		t.Fatal("the budgeted run spilled nothing; the comparison is vacuous")
	}
	a := section(t, checkpoint(t, mem), "collection")
	b := section(t, checkpoint(t, spill), "collection")
	if !bytes.Equal(a, b) {
		t.Fatalf("collection sections differ: %d bytes at budget 0, %d under spill", len(a), len(b))
	}
}

// TestCheckpointRestoreCheckpointFlatSections restores a stopped pipeline's
// checkpoint and checkpoints the restored one: its collection and accounting
// sections re-encode byte for byte, at budget 0 and under a spill budget.
// The accounting's elapsed time is the one field that moves with the clock,
// so it is aligned before the comparison.
func TestCheckpointRestoreCheckpointFlatSections(t *testing.T) {
	for _, budget := range []int64{0, 4 << 10} {
		scfg := storage.Config{Budget: budget, Dir: t.TempDir()}
		l, _ := spillRun(t, scfg, nil)
		first := checkpoint(t, l)
		l.Close()
		cfg := LiveConfig{
			CleanClean:   true,
			MaxBlockSize: DefaultMaxBlockSize,
			Matcher:      match.NewMatcher(match.JS),
			TickEvery:    time.Hour,
			Parallelism:  1,
			Shards:       1,
			Storage:      scfg,
		}
		r, err := RestoreLive(bytes.NewReader(first), core.NewIPCS(core.DefaultConfig()), cfg)
		if err != nil {
			t.Fatalf("budget %d: RestoreLive: %v", budget, err)
		}
		r.Stop()
		second := checkpoint(t, r)
		r.Close()

		if a, b := section(t, first, "collection"), section(t, second, "collection"); !bytes.Equal(a, b) {
			t.Errorf("budget %d: collection section re-encodes to %d bytes, was %d", budget, len(b), len(a))
		}
		a, err := DecodeAccounting(section(t, first, "accounting"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := DecodeAccounting(section(t, second, "accounting"))
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Executed) == 0 {
			t.Fatalf("budget %d: no executed pairs; the comparison is vacuous", budget)
		}
		b.ElapsedNS = a.ElapsedNS
		if !bytes.Equal(a.AppendImage(nil), b.AppendImage(nil)) {
			t.Errorf("budget %d: accounting section changed across restore: %+v, was %+v", budget, b, a)
		}
	}
}

// spillFiles returns the files matching pattern under dir's spill
// subdirectories.
func spillFiles(t *testing.T, dir, pattern string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*", pattern))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCheckpointFailsOnDamagedSpillSegment truncates a sealed segment of each
// spill store under a stopped pipeline. Checkpoint must fail instead of
// writing a partial image or panicking, and Err must report the failure.
func TestCheckpointFailsOnDamagedSpillSegment(t *testing.T) {
	for _, tc := range []struct{ name, pattern string }{
		{"posting index", "shard-*.seg"},
		{"executed pairs", "dedup-*.seg"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := spillRun(t, storage.Config{Budget: 4 << 10, Dir: dir}, nil)
			defer l.Close()
			files := spillFiles(t, dir, tc.pattern)
			if len(files) == 0 {
				t.Fatalf("no %s segment was written; the test is vacuous", tc.pattern)
			}
			for _, f := range files {
				if err := os.Truncate(f, 3); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Err(); err != nil {
				t.Fatalf("Err() = %v before the damaged segment was read", err)
			}
			var buf bytes.Buffer
			if _, err := l.Checkpoint(&buf); err == nil {
				t.Fatal("Checkpoint over a truncated segment succeeded")
			}
			if l.Err() == nil {
				t.Fatal("Err() is nil after a failed segment read")
			}
		})
	}
}
