// Package dataset provides the evaluation workloads. The paper's real
// datasets (dblp-acm, movies, the 2M Febrl census corpus, dbpedia) are not
// redistributable here, so this package generates synthetic substitutes that
// preserve the statistics the algorithms are sensitive to — cardinalities,
// match counts, token-frequency skew, value lengths, and schema heterogeneity
// — as documented per dataset in DESIGN.md. It also loads/stores profiles and
// ground truth as CSV for users with real data.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"pier/internal/profile"
)

// Dataset is a fully materialized ER workload: a stream-ordered profile
// sequence plus the ground-truth duplicate pairs.
type Dataset struct {
	Name       string
	CleanClean bool
	// Profiles is the stream order: IDs are assigned 0..n-1 in this order,
	// with the two sources of a Clean-Clean task interleaved by the
	// deterministic shuffle, as increments of a real stream would be.
	Profiles []*profile.Profile
	// GroundTruth is the set of duplicate pairs as canonical pair keys.
	GroundTruth map[uint64]struct{}
}

// NumMatches returns |GroundTruth|.
func (d *Dataset) NumMatches() int { return len(d.GroundTruth) }

// NumProfiles returns the number of profiles.
func (d *Dataset) NumProfiles() int { return len(d.Profiles) }

// SourceCounts returns the number of profiles per source.
func (d *Dataset) SourceCounts() (a, b int) {
	for _, p := range d.Profiles {
		if p.Source == profile.SourceB {
			b++
		} else {
			a++
		}
	}
	return a, b
}

// Increments splits the stream into n contiguous, equi-sized increments
// (the last one absorbs the remainder), the way the paper splits datasets
// for the incremental experiments.
func (d *Dataset) Increments(n int) [][]*profile.Profile {
	if n <= 0 {
		n = 1
	}
	if n > len(d.Profiles) {
		n = len(d.Profiles)
	}
	if n == 0 {
		return nil
	}
	size := len(d.Profiles) / n
	out := make([][]*profile.Profile, 0, n)
	for i := 0; i < n; i++ {
		lo := i * size
		hi := lo + size
		if i == n-1 {
			hi = len(d.Profiles)
		}
		out = append(out, d.Profiles[lo:hi])
	}
	return out
}

// String summarizes the dataset in Table-1 style.
func (d *Dataset) String() string {
	a, b := d.SourceCounts()
	if d.CleanClean {
		return fmt.Sprintf("%s: %d - %d profiles, %d matches (Clean-Clean)", d.Name, a, b, d.NumMatches())
	}
	return fmt.Sprintf("%s: %d profiles, %d matches (Dirty)", d.Name, a+b, d.NumMatches())
}

// protoProfile is a profile before stream-order ID assignment.
type protoProfile struct {
	source    profile.Source
	entityKey string
	attrs     []profile.Attribute
}

// builder accumulates proto-profiles and finalizes them into a Dataset.
type builder struct {
	rng    *rand.Rand
	protos []protoProfile
}

func newBuilder(seed int64) *builder {
	return &builder{rng: rand.New(rand.NewSource(seed))}
}

func (b *builder) add(src profile.Source, entityKey string, attrs []profile.Attribute) {
	b.protos = append(b.protos, protoProfile{source: src, entityKey: entityKey, attrs: attrs})
}

// finalize shuffles the proto-profiles into stream order, assigns IDs, and
// derives the ground truth from entity keys: for Clean-Clean, every
// cross-source pair with the same key; for Dirty, every pair with the same
// key.
func (b *builder) finalize(name string, cleanClean bool) *Dataset {
	b.rng.Shuffle(len(b.protos), func(i, j int) {
		b.protos[i], b.protos[j] = b.protos[j], b.protos[i]
	})
	d := &Dataset{
		Name:        name,
		CleanClean:  cleanClean,
		Profiles:    make([]*profile.Profile, len(b.protos)),
		GroundTruth: make(map[uint64]struct{}),
	}
	byKey := make(map[string][]int)
	for i, pp := range b.protos {
		d.Profiles[i] = &profile.Profile{
			ID:         i,
			Source:     pp.source,
			EntityKey:  pp.entityKey,
			Attributes: pp.attrs,
		}
		if pp.entityKey != "" {
			byKey[pp.entityKey] = append(byKey[pp.entityKey], i)
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ids := byKey[k]
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				x, y := ids[i], ids[j]
				if cleanClean && d.Profiles[x].Source == d.Profiles[y].Source {
					continue
				}
				d.GroundTruth[profile.PairKey(x, y)] = struct{}{}
			}
		}
	}
	return d
}
