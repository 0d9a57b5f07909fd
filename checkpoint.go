package pier

import (
	"bytes"
	"fmt"
	"io"

	"pier/internal/snapshot"
	"pier/internal/stream"
)

// pipelineImage is the pipeline-level state persisted alongside the stream
// snapshot: the caller profiles by internal ID (match reporting and Clusters
// resolve IDs through it) and the next ID to assign.
type pipelineImage struct {
	Profiles []Profile
	NextID   int
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
	p.mu.Lock()
	img := pipelineImage{
		Profiles: append([]Profile(nil), p.profiles...),
		NextID:   p.nextID,
	}
	p.mu.Unlock()

	sw, err := snapshot.NewWriter(w)
	if err != nil {
		return 0, fmt.Errorf("pier: checkpoint: %w", err)
	}
	if err := sw.Gob("pipeline", img); err != nil {
		return sw.Bytes(), fmt.Errorf("pier: checkpoint: %w", err)
	}
	if err := sw.Section("live", func(w io.Writer) error {
		_, err := w.Write(live.Bytes())
		return err
	}); err != nil {
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
	if err := sr.Gob("pipeline", &img); err != nil {
		return nil, fmt.Errorf("pier: restore: %w", err)
	}
	// The registry is indexed by internal ID, and every ID the stream
	// ingested was registered first (see Checkpoint).
	if len(img.Profiles) != img.NextID {
		return nil, fmt.Errorf("pier: restore: profile registry holds %d profiles for %d IDs", len(img.Profiles), img.NextID)
	}
	p.profiles, p.nextID = img.Profiles, img.NextID
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
	if n := p.live.Snapshot().Profiles; n > p.nextID {
		p.live.Interrupt()
		p.live.Close()
		return nil, fmt.Errorf("pier: restore: stream ingested %d profiles, registry holds %d", n, p.nextID)
	}
	return p, nil
}
