package pier_test

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"pier"
	"pier/internal/dataset"
	"pier/internal/stream"
)

// TestSpillPipelinesAreFreed runs pipeline lifecycles under a StorageBudget
// that spills — NewPipeline, Push, Stop, Checkpoint, Close, and on every
// other cycle Restore, Stop, Close — and requires the heap after GC and the
// process's open descriptors to stay flat. A spilled index publishes
// snapshots that hold segment handles, and a handle pointing back at its
// collection sits on a reference cycle: a finalizer anywhere on that cycle
// keeps the collection, its profiles, the handle's descriptor and the
// unlinked segment's disk space alive after Close. That leak read +21.5 MB
// of heap and +9 descriptors over the six measured lifecycles below.
func TestSpillPipelinesAreFreed(t *testing.T) {
	if testing.Short() {
		t.Skip("six pipeline lifecycles")
	}
	d := dataset.Census(0.001, 1)
	var profiles []pier.Profile
	for _, p := range d.Profiles {
		pr := pier.Profile{Key: p.EntityKey}
		for _, a := range p.Attributes {
			pr.Attributes = append(pr.Attributes, pier.Attribute{Name: a.Name, Value: a.Value})
		}
		profiles = append(profiles, pr)
	}
	opt := pier.Options{Algorithm: pier.IPCS, Parallelism: 1, Shards: 1, StorageBudget: 128 << 10}
	lifecycle := func(cycle int) {
		p, err := pier.NewPipeline(opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(profiles); i += 50 {
			if err := p.Push(profiles[i:min(i+50, len(profiles))]); err != nil {
				t.Fatal(err)
			}
		}
		p.Stop()
		var ckpt bytes.Buffer
		if _, err := p.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if cycle%2 == 1 {
			r, err := pier.Restore(&ckpt, opt)
			if err != nil {
				t.Fatal(err)
			}
			r.Stop()
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle frees what the first one's finalizers released
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1 // not Linux: the heap reading still holds the leak
		}
		return len(ents)
	}
	// Two warm-up lifecycles, so one-time allocations (the interner's pools,
	// the runtime's own caches) are in the baseline.
	lifecycle(0)
	lifecycle(1)
	heap0, fd0 := heap(), fds()
	const cycles = 6
	for c := 0; c < cycles; c++ {
		lifecycle(c)
	}
	heap1, fd1 := heap(), fds()
	t.Logf("after %d lifecycles: heap %.1f -> %.1f MB, open descriptors %d -> %d",
		cycles, float64(heap0)/1e6, float64(heap1)/1e6, fd0, fd1)
	// One retained pipeline of this stream holds several MB, so 2 MB of
	// slack across six lifecycles tolerates GC noise and still sees it.
	if heap1 > heap0+2<<20 {
		t.Errorf("heap after GC grew %.1f MB over %d lifecycles: closed pipelines are retained",
			float64(heap1-heap0)/1e6, cycles)
	}
	if fd1 > fd0 {
		t.Errorf("open descriptors grew %d -> %d over %d lifecycles: segment handles of closed pipelines stay open",
			fd0, fd1, cycles)
	}
}

// TestRejectedRestoreEndsGoroutines restores a checkpoint whose stream
// counted one profile more than its registry holds, which Restore rejects
// after the stream has started, and requires the goroutine count to return
// to its baseline. The rejection interrupts the restored stream, and
// Interrupt used to leave its prep stage waiting for input for good: one
// goroutine leaked per rejected Restore.
func TestRejectedRestoreEndsGoroutines(t *testing.T) {
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
	bad := withLiveSection(t, snap.Bytes(), "accounting", func(img []byte) []byte {
		acc, err := stream.DecodeAccounting(img)
		if err != nil {
			t.Fatal(err)
		}
		acc.Profiles++
		return acc.AppendImage(nil)
	})

	base := runtime.NumGoroutine()
	const restores = 8
	for range restores {
		if _, err := pier.Restore(bytes.NewReader(bad), opt); err == nil || !strings.Contains(err.Error(), "registry holds") {
			t.Fatalf("Restore of a stream with more profiles than its registry: err = %v", err)
		}
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	if n > base {
		t.Fatalf("%d goroutines after %d rejected restores, %d before", n, restores, base)
	}
}
