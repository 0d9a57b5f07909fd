package pier

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"pier/internal/snapshot"
	"pier/internal/stream"
)

// pipelineImage is the pipeline-level state persisted alongside the stream
// snapshot: the caller profiles by internal ID (match reporting and Clusters
// resolve IDs through it) and the next ID to assign. Since format v4 the
// pipeline section is its flat image (appendImage, decodePipelineImage);
// formats v2 and v3 wrote it with gob, which Restore still decodes.
type pipelineImage struct {
	Profiles []Profile
	NextID   int
}

// appendImage appends the flat image of img to buf: the profile count, then
// per profile its key, its source flag and its attributes (a count, then
// name and value strings), and last the next ID.
func (img *pipelineImage) appendImage(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(img.Profiles)))
	for _, p := range img.Profiles {
		buf = snapshot.AppendString(buf, p.Key)
		buf = snapshot.AppendBool(buf, p.SourceB)
		buf = binary.AppendUvarint(buf, uint64(len(p.Attributes)))
		for _, a := range p.Attributes {
			buf = snapshot.AppendString(buf, a.Name)
			buf = snapshot.AppendString(buf, a.Value)
		}
	}
	return binary.AppendVarint(buf, int64(img.NextID))
}

// decodePipelineImage reads an image appendImage wrote. Every count is
// checked against the bytes left before anything is allocated for it, and an
// image it accepts re-encodes to data.
func decodePipelineImage(data []byte) (pipelineImage, error) {
	d := snapshot.NewDecoder(data)
	// A profile takes at least three bytes: key length, flag, attribute count.
	img := pipelineImage{Profiles: make([]Profile, d.Count(3))}
	for i := range img.Profiles {
		p := &img.Profiles[i]
		p.Key = d.String()
		p.SourceB = d.Bool()
		if n := d.Count(2); n > 0 {
			p.Attributes = make([]Attribute, n)
			for j := range p.Attributes {
				p.Attributes[j] = Attribute{Name: d.String(), Value: d.String()}
			}
		}
	}
	img.NextID = d.Int()
	if err := d.Finish(); err != nil {
		return pipelineImage{}, fmt.Errorf("pipeline image: %w", err)
	}
	return img, nil
}

// Checkpoint writes a restartable snapshot of the pipeline's entire state to
// w: the blocking index, the strategy's prioritized comparison queues, the
// adaptive-K estimators, the dedup and retry bookkeeping, and the pipeline's
// profile registry. It may be called while the pipeline is running (the
// snapshot is taken atomically between batches), or after Stop. Restore the
// snapshot with Restore, passing the same Options; a run resumed this way
// executes exactly the comparisons an uninterrupted run would have.
// It returns the number of bytes written.
func (p *Pipeline) Checkpoint(w io.Writer) (int64, error) {
	// Stream snapshot first: every internal ID it can reference was
	// registered before the live loop ingested it, so copying the registry
	// afterwards can only over-approximate — never miss an ID a restored
	// match report will need.
	var live bytes.Buffer
	if _, err := p.live.Checkpoint(&live); err != nil {
		return 0, fmt.Errorf("pier: checkpoint: %w", err)
	}
	// Registered profiles are never modified, so the image is encoded from
	// the registry's published header.
	reg := p.registry()
	img := pipelineImage{Profiles: reg, NextID: len(reg)}

	sw, err := snapshot.NewWriter(w)
	if err != nil {
		return 0, fmt.Errorf("pier: checkpoint: %w", err)
	}
	sw.Flat("pipeline", img.appendImage(nil))
	if err := sw.Flat("live", live.Bytes()); err != nil {
		return sw.Bytes(), fmt.Errorf("pier: checkpoint: %w", err)
	}
	return sw.Bytes(), nil
}

// Restore starts a pipeline from a Checkpoint snapshot and resumes where the
// checkpointed run left off: queued comparisons stay queued, executed pairs
// stay deduplicated, counters and the adaptive K continue from their saved
// values. opt must describe the same pipeline that wrote the snapshot — the
// same Algorithm, CleanClean, Window, and MaxBlockSize are verified against
// the snapshot and mismatches are rejected; matcher and callbacks may differ
// (they are not part of the persisted state).
func Restore(r io.Reader, opt Options) (*Pipeline, error) {
	p, strategy, cfg, err := build(opt)
	if err != nil {
		return nil, err
	}
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("pier: restore: %w", err)
	}
	var img pipelineImage
	if sr.Version() >= 4 {
		data, err := sr.Flat("pipeline")
		if err == nil {
			img, err = decodePipelineImage(data)
		}
		if err != nil {
			return nil, fmt.Errorf("pier: restore: %w", err)
		}
	} else if err := sr.Gob("pipeline", &img); err != nil {
		return nil, fmt.Errorf("pier: restore: %w", err)
	}
	// The registry is indexed by internal ID, and every ID the stream
	// ingested was registered first (see Checkpoint).
	if len(img.Profiles) != img.NextID {
		return nil, fmt.Errorf("pier: restore: profile registry holds %d profiles for %d IDs", len(img.Profiles), img.NextID)
	}
	p.profiles.Store(&img.Profiles)
	cfg.Assigned = func(id int) bool { return 0 <= id && id < img.NextID }
	if err := sr.Section("live", func(body io.Reader) error {
		live, err := stream.RestoreLive(body, strategy, cfg)
		if err != nil {
			return err
		}
		p.live = live
		return nil
	}); err != nil {
		return nil, fmt.Errorf("pier: restore: %w", err)
	}
	if n := p.live.Snapshot().Profiles; n > img.NextID {
		p.live.Interrupt()
		p.live.Close()
		return nil, fmt.Errorf("pier: restore: stream ingested %d profiles, registry holds %d", n, img.NextID)
	}
	return p, nil
}
