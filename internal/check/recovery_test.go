package check

import (
	"io"
	"os"
	"strconv"
	"strings"
	"testing"

	"pier/internal/core"
	"pier/internal/fault"
	"pier/internal/metablocking"
)

// faultSeedBase returns the base seed of the recovery matrix: 100 by
// default, overridable with PIER_FAULT_SEED so CI can sweep a seed grid
// without recompiling (the fault-matrix job runs the battery at several
// seeds under -race).
func faultSeedBase(t *testing.T) int64 {
	t.Helper()
	env := os.Getenv("PIER_FAULT_SEED")
	if env == "" {
		return 100
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("PIER_FAULT_SEED=%q is not an integer: %v", env, err)
	}
	return seed
}

// TestRecoveryBattery is the fault-tolerance acceptance matrix: mid-drive
// strategy round-trips and kill/restore recovery equivalence under seeded
// matcher faults, for all three checkpointable strategies over the three
// dataset families.
func TestRecoveryBattery(t *testing.T) {
	base := faultSeedBase(t)
	for i, ds := range harnessDatasets(t) {
		ds, seed := ds, base+int64(i)
		t.Run(ds.Name, func(t *testing.T) {
			t.Parallel()
			if err := RecoveryBattery(ds, 6, seed); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRoundTripAcrossCuts exercises the snapshot at different stream
// positions and pre-drain depths, including a snapshot taken before any
// comparison was dequeued.
func TestRoundTripAcrossCuts(t *testing.T) {
	ds := mutDataset()
	cfg := CoreConfig()
	mk := func() core.Strategy { return core.NewIPES(cfg) }
	for _, cut := range []int{1, 3, 5} {
		for _, drain := range []int{0, 7, 64} {
			if err := RoundTrip(mk, ds.CleanClean, ds.Increments(6), cut, drain); err != nil {
				t.Errorf("cut=%d drain=%d: %v", cut, drain, err)
			}
		}
	}
}

// lossyRestore delegates persistence to the wrapped strategy but, when lossy,
// silently swallows one dequeued comparison — modeling a snapshot codec that
// loses an entry on the restore path.
type lossyRestore struct {
	core.Strategy
	lossy   bool
	dropped bool
}

func (m *lossyRestore) SaveState(w io.Writer) error {
	return m.Strategy.(core.Persistent).SaveState(w)
}

func (m *lossyRestore) LoadState(r io.Reader) error {
	return m.Strategy.(core.Persistent).LoadState(r)
}

func (m *lossyRestore) Dequeue() (metablocking.Comparison, bool) {
	c, ok := m.Strategy.Dequeue()
	if ok && m.lossy && !m.dropped {
		m.dropped = true
		return m.Strategy.Dequeue()
	}
	return c, ok
}

// TestRoundTripFiresOnLossyRestore proves the round-trip oracle can fail: a
// restored instance that drops a single comparison must be reported as a
// trace divergence.
func TestRoundTripFiresOnLossyRestore(t *testing.T) {
	ds := mutDataset()
	cfg := CoreConfig()
	instances := 0
	mk := func() core.Strategy {
		instances++
		return &lossyRestore{Strategy: core.NewIPES(cfg), lossy: instances == 2}
	}
	err := RoundTrip(mk, ds.CleanClean, ds.Increments(6), 3, 8)
	if err == nil {
		t.Fatal("round-trip oracle accepted a restore that lost a comparison")
	}
	if !strings.Contains(err.Error(), "diverge") {
		t.Fatalf("wrong failure reported: %v", err)
	}
}

// TestRecoveryEquivalenceGuardsAgainstVacuousRuns: the oracle must refuse to
// pass when the configured crash or fault injection never actually happened.
func TestRecoveryEquivalenceGuardsAgainstVacuousRuns(t *testing.T) {
	ds := mutDataset()
	cfg := CoreConfig()
	mk := func() core.Strategy { return core.NewIPES(cfg) }
	incs := ds.Increments(4)

	err := RecoveryEquivalence(mk, ds.CleanClean, incs, fault.Config{Seed: 9, CrashAtIncrement: 99})
	if err == nil || !strings.Contains(err.Error(), "never fired") {
		t.Errorf("crash beyond the stream: err = %v, want a vacuousness failure", err)
	}

	err = RecoveryEquivalence(mk, ds.CleanClean, incs, fault.Config{Seed: 9, MatcherErrorRate: 1e-12, CrashAtIncrement: 2})
	if err == nil || !strings.Contains(err.Error(), "vacuous") {
		t.Errorf("negligible error rate: err = %v, want a vacuousness failure", err)
	}
}
