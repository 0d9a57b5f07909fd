package benchmark

import (
	"fmt"
	"strconv"

	"pier"
	"pier/internal/dataset"
	"pier/internal/profile"
)

// inputs is everything a run derives from (workload, seed) before it touches
// the program: the generated dataset, the same profiles as public API values
// cut into increments, and the ground truth the recall metrics count against.
// The program only ever receives the profiles.
type inputs struct {
	w  workloadDef
	ds *dataset.Dataset
	// flat holds every profile in stream order; its Key is the decimal stream
	// position, which is also the dataset's profile ID. incs are contiguous
	// sub-slices of flat, one per Push.
	flat []pier.Profile
	incs [][]pier.Profile
	// incSize is the length of every increment but the last.
	incSize int
	// truth is the ground truth a pipeline with this workload's options can
	// be asked to find: the dataset's duplicate pairs, less — under a window
	// — the pairs whose earlier profile is evicted before the later arrives.
	truth map[uint64]struct{}
}

// makeInputs generates the workload's inputs from the seed; equal arguments
// give equal inputs.
func makeInputs(w workloadDef, seed int64) (*inputs, error) {
	var ds *dataset.Dataset
	switch w.Dataset {
	case "census":
		ds = dataset.Census(float64(w.Profiles)/2_000_000, seed)
	case "movies":
		ds = dataset.Movies(float64(w.Profiles)/50_700, seed)
	default:
		return nil, fmt.Errorf("workload %s: unknown dataset %q", w.Name, w.Dataset)
	}
	if ds.CleanClean != w.Options.CleanClean {
		return nil, fmt.Errorf("workload %s: dataset %s and Options.CleanClean disagree", w.Name, w.Dataset)
	}
	in := &inputs{w: w, ds: ds, flat: make([]pier.Profile, len(ds.Profiles))}
	for i, p := range ds.Profiles {
		attrs := make([]pier.Attribute, len(p.Attributes))
		for j, a := range p.Attributes {
			attrs[j] = pier.Attribute{Name: a.Name, Value: a.Value}
		}
		in.flat[i] = pier.Profile{Key: strconv.Itoa(p.ID), SourceB: p.Source == profile.SourceB, Attributes: attrs}
	}
	// dataset.Increments decides the cut; the public profiles follow it.
	lo := 0
	for _, inc := range ds.Increments(w.Increments) {
		in.incs = append(in.incs, in.flat[lo:lo+len(inc)])
		lo += len(inc)
	}
	if len(in.incs) == 0 {
		return nil, fmt.Errorf("workload %s seed %d: empty dataset", w.Name, seed)
	}
	in.incSize = len(in.incs[0])
	in.truth = ds.GroundTruth
	if win := w.Options.Window; win > 0 {
		// Eviction is by count and runs as each increment is ingested: when
		// profile y arrives with its increment, x is still indexed only if it
		// is among the last Window profiles up to that increment's end.
		in.truth = make(map[uint64]struct{})
		for key := range ds.GroundTruth {
			x, y := profile.SplitPairKey(key)
			if x >= in.incEnd(in.incOf(y))-win {
				in.truth[key] = struct{}{}
			}
		}
	}
	if len(in.truth) == 0 {
		return nil, fmt.Errorf("workload %s seed %d: empty ground truth", w.Name, seed)
	}
	return in, nil
}

// incOf returns the increment that carries stream position pos.
func (in *inputs) incOf(pos int) int {
	return min(pos/in.incSize, len(in.incs)-1)
}

// incEnd returns the number of profiles pushed once increment k is in.
func (in *inputs) incEnd(k int) int {
	if k >= len(in.incs)-1 {
		return len(in.flat)
	}
	return (k + 1) * in.incSize
}

// probeStride walks the idle and side probes over the index: a prime far from
// any increment size, so consecutive probes land in unrelated increments.
const probeStride = 7919

// indexedProbe returns the i-th stream position of a fixed-stride walk over
// the profiles still indexed once the whole stream is in: all of them, or the
// last Window. A fixed walk, not the Zipf picker, because a median over it
// should speak for the whole index and not for the few hot profiles one seed
// happens to draw.
func (in *inputs) indexedProbe(i int) int {
	first := 0
	if win := in.w.Options.Window; win > 0 {
		first = max(0, len(in.flat)-win)
	}
	return first + (i*probeStride)%(len(in.flat)-first)
}

// idOf parses the stream position back out of a reported profile.
func idOf(p pier.Profile) (int, bool) {
	id, err := strconv.Atoi(p.Key)
	return id, err == nil
}

// internalCopies converts the increments to fresh internal profiles, as
// Pipeline.Push does for every increment it is handed: fresh, because a
// profile caches its tokens on first use and every run must pay for them.
func (in *inputs) internalCopies() [][]*profile.Profile {
	out := make([][]*profile.Profile, len(in.incs))
	for k, inc := range in.incs {
		out[k] = make([]*profile.Profile, len(inc))
		for j, pr := range inc {
			out[k][j] = toInternal(pr, k*in.incSize+j)
		}
	}
	return out
}

// toInternal mirrors Pipeline.convert.
func toInternal(pr pier.Profile, id int) *profile.Profile {
	src := profile.SourceA
	if pr.SourceB {
		src = profile.SourceB
	}
	attrs := make([]profile.Attribute, len(pr.Attributes))
	for i, a := range pr.Attributes {
		attrs[i] = profile.Attribute{Name: a.Name, Value: a.Value}
	}
	return &profile.Profile{ID: id, Source: src, EntityKey: pr.Key, Attributes: attrs}
}

// otherSource flips a profile's source. A Clean-Clean probe is presented as
// coming from the opposite source of the profile it copies: only then is the
// copied profile itself an eligible candidate.
func otherSource(s profile.Source) profile.Source {
	if s == profile.SourceB {
		return profile.SourceA
	}
	return profile.SourceB
}
