package check

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/match"
	"pier/internal/metablocking"
	"pier/internal/profile"
	"pier/internal/storage"
	"pier/internal/stream"
)

// QueryOracle cross-validates the online serving path against batch
// blocking: it feeds the increments into a live pipeline, then — once every
// increment is indexed but while the pipeline is still matching — probes it
// with copies of sampled indexed profiles and asserts, for each probe:
//
//   - subset: every candidate the query returns is co-blocked with the probe
//     in the batch reference collection (a full, purge-free blocking of the
//     same increments). A query can never invent a pairing blocking would
//     not produce.
//   - completeness (this configuration only): under the oracle config — no
//     purging, no window, unbounded TopK — the candidate set *equals* the
//     reference co-blocked set, and the matched subset equals the reference
//     partners the matcher accepts. In production, purging and TopK make the
//     query a strict subset; the oracle removes every legitimate source of
//     loss so any missing partner is a bug.
//
// nProbes profiles are sampled with the seeded generator. The probe is a
// fresh copy with ID -1: the query path must key it by content, never by
// identity in the registry.
func QueryOracle(cleanClean bool, incs [][]*profile.Profile, nProbes int, seed int64) error {
	return QueryOracleStorage(cleanClean, incs, nProbes, seed, 0, storage.Config{})
}

// QueryOracleStorage is QueryOracle with an explicit shard count (0 for the
// default) and storage backend for the pipeline under test: with a tight
// budget the queried index serves most probes out of spilled blocks via the
// snapshot redirect path, while the batch reference stays fully in memory —
// so subset and completeness both double as spill-backend differential
// checks.
func QueryOracleStorage(cleanClean bool, incs [][]*profile.Profile, nProbes int, seed int64, shards int, scfg storage.Config) error {
	matcher := match.NewMatcher(match.JS)
	l := stream.LiveRun(core.NewIPES(CoreConfig()), stream.LiveConfig{
		CleanClean:      cleanClean,
		MaxBlockSize:    0, // purging drops pairs by design; the oracle needs all of them
		Matcher:         matcher,
		Scheme:          metablocking.CBS,
		Parallelism:     1,
		Shards:          shards,
		CheckInvariants: true,
		Storage:         scfg,
	})
	defer func() {
		l.Stop()
		l.Close()
	}()
	for _, inc := range incs {
		if err := l.Push(inc); err != nil {
			return fmt.Errorf("check: QueryOracle: push: %w", err)
		}
	}
	// Quiesce ingestion only: wait until every pushed increment is indexed,
	// then query while the pipeline keeps matching — the oracle covers the
	// concurrent read path, not just the post-Stop state. The block
	// collection no longer changes after the last increment is indexed
	// (no purging, no window), so the reference comparison is exact.
	deadline := time.Now().Add(30 * time.Second)
	for int(l.Snapshot().Increments) < len(incs) {
		if time.Now().After(deadline) {
			return fmt.Errorf("check: QueryOracle: pipeline ingested %d of %d increments before deadline",
				l.Snapshot().Increments, len(incs))
		}
		time.Sleep(time.Millisecond)
	}

	ref := FinalCollection(cleanClean, incs)
	var all []*profile.Profile
	for _, inc := range incs {
		all = append(all, inc...)
	}
	if len(all) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nProbes; i++ {
		orig := all[rng.Intn(len(all))]
		probe := &profile.Profile{
			ID:         -1,
			Source:     orig.Source,
			EntityKey:  orig.EntityKey,
			Attributes: append([]profile.Attribute(nil), orig.Attributes...),
		}
		ans, err := l.Query(context.Background(), probe, stream.QueryOptions{TopK: -1})
		if err != nil {
			return fmt.Errorf("check: QueryOracle: query %d (profile %d): %w", i, orig.ID, err)
		}
		want := referencePartners(ref, probe)
		got := make(map[int]struct{}, len(ans.Candidates))
		for _, c := range ans.Candidates {
			if _, ok := want[c.ID]; !ok {
				return fmt.Errorf("check: QueryOracle: probe of profile %d returned candidate %d that batch blocking never pairs it with",
					orig.ID, c.ID)
			}
			got[c.ID] = struct{}{}
		}
		if len(got) != len(want) {
			return fmt.Errorf("check: QueryOracle: probe of profile %d returned %d candidates, batch blocking pairs it with %d (e.g. missing %v)",
				orig.ID, len(got), len(want), missingIDs(want, got))
		}
		for _, c := range ans.Candidates {
			if c.Err != nil {
				return fmt.Errorf("check: QueryOracle: probe of profile %d: candidate %d failed: %v", orig.ID, c.ID, c.Err)
			}
			if wantMatch := matcher.Match(probe, c.Profile); c.Match != wantMatch {
				return fmt.Errorf("check: QueryOracle: probe of profile %d: candidate %d verdict %v, matcher says %v",
					orig.ID, c.ID, c.Match, wantMatch)
			}
		}
	}
	return nil
}

// referencePartners enumerates the profiles batch blocking would pair the
// probe with: the union of the members of every reference block keyed by one
// of the probe's tokens, restricted to the opposite source for Clean-Clean.
// It is computed by brute force against the reference collection,
// independent of the Probe* machinery under test.
func referencePartners(ref *blocking.Collection, probe *profile.Profile) map[int]struct{} {
	out := make(map[int]struct{})
	for _, tok := range probe.Tokens() {
		b := ref.Block(tok)
		if b == nil {
			continue
		}
		if ref.CleanClean() {
			if probe.Source == profile.SourceA {
				for _, id := range b.B {
					out[id] = struct{}{}
				}
			} else {
				for _, id := range b.A {
					out[id] = struct{}{}
				}
			}
		} else {
			for _, id := range b.A {
				out[id] = struct{}{}
			}
			for _, id := range b.B {
				out[id] = struct{}{}
			}
		}
	}
	return out
}

// missingIDs returns up to three IDs in want but not in got, ascending, for
// deterministic failure messages.
func missingIDs(want, got map[int]struct{}) []int {
	var out []int
	for id := range want {
		if _, ok := got[id]; !ok {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	if len(out) > 3 {
		out = out[:3]
	}
	return out
}
