// Package snapshot implements the versioned binary container format for PIER
// checkpoints. A snapshot is a magic header followed by a sequence of named,
// length-prefixed sections, each holding one component's state (blocking
// collection, strategy index, adaptive-K estimators, live-stream accounting,
// …). The bulky sections — the collection, the executed-pair accounting and
// the pipeline's profile registry — are flat images appended with this
// package's codec (flat.go); the small ones are gob.
//
// The container is deliberately dumb: it knows nothing about the sections'
// contents, only their names and byte lengths. Components own their images,
// so a component can evolve its persisted representation without touching the
// framing, and the reader can reject a snapshot with a precise error — wrong
// magic, unsupported version, truncated section, section-order mismatch —
// before any component decoder runs.
//
// Compatibility policy (DESIGN.md §9): the format version is bumped whenever
// any section's image changes; readers accept the current version and the
// older ones whose images a decode-only path still reads (MinVersion), and
// hand the version to the components through Reader.Version. Checkpoints are
// operational state for crash recovery, not an archival format — any other
// version means "re-ingest from the source", never silent partial restore.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"slices"
)

// Magic identifies a PIER snapshot stream.
const Magic = "PIERSNAP"

// Version is the current container format version. Version 2 introduced the
// symbol-interned blocking index: the collection and strategy sections
// persist dense uint32 symbols plus the symbol table that resolves them,
// which version-1 snapshots predate. Version 3 moved the executed-pair set
// out of the strategy images: the pipeline's accounting section holds it, and
// the strategies' Bloom filters are gone. Version 4 made the collection,
// accounting and pipeline sections flat images (flat.go) instead of gob.
const Version uint32 = 4

// MinVersion is the oldest version readers accept. Version-2 and version-3
// images restore through the gob image types their collection, accounting
// and pipeline sections were written with, kept decode-only. A version-2
// image decodes into version 3's types because gob skips the fields version
// 3 removed, and its accounting section already held the exact executed-pair
// set.
const MinVersion uint32 = 2

// maxSectionSize bounds a single section to guard the reader against
// corrupted or adversarial length prefixes (1 GiB is far beyond any real
// checkpoint section).
const maxSectionSize = 1 << 30

// Writer emits a snapshot stream: header first, then sections in call order.
type Writer struct {
	w   io.Writer
	err error
	// Bytes counts the payload written so far, header included, for the
	// checkpoint-size observability the pipeline reports.
	bytes int64
}

// NewWriter writes the snapshot header to w and returns the section writer.
func NewWriter(w io.Writer) (*Writer, error) {
	sw := &Writer{w: w}
	var hdr bytes.Buffer
	hdr.WriteString(Magic)
	if err := binary.Write(&hdr, binary.LittleEndian, Version); err != nil {
		return nil, fmt.Errorf("snapshot: write header: %w", err)
	}
	n, err := w.Write(hdr.Bytes())
	sw.bytes += int64(n)
	if err != nil {
		return nil, fmt.Errorf("snapshot: write header: %w", err)
	}
	return sw, nil
}

// Section writes one named section whose body is produced by encode (usually
// a closure gob-encoding a component image). After the first error every
// subsequent call is a no-op returning that error.
func (sw *Writer) Section(name string, encode func(io.Writer) error) error {
	if sw.err != nil {
		return sw.err
	}
	var body bytes.Buffer
	if err := encode(&body); err != nil {
		sw.err = fmt.Errorf("snapshot: encode section %q: %w", name, err)
		return sw.err
	}
	return sw.Flat(name, body.Bytes())
}

// Flat writes one named section whose body is body, as built by a flat
// encoder (flat.go). Like Section, it is a no-op after the first error.
func (sw *Writer) Flat(name string, body []byte) error {
	if sw.err != nil {
		return sw.err
	}
	frame := make([]byte, 0, 4+len(name)+8)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(name)))
	frame = append(frame, name...)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(len(body)))
	for _, b := range [][]byte{frame, body} {
		n, err := sw.w.Write(b)
		sw.bytes += int64(n)
		if err != nil {
			sw.err = fmt.Errorf("snapshot: write section %q: %w", name, err)
			return sw.err
		}
	}
	return nil
}

// Gob writes one named section holding the gob encoding of v.
func (sw *Writer) Gob(name string, v any) error {
	return sw.Section(name, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(v)
	})
}

// Bytes returns the total bytes written so far (header + sections).
func (sw *Writer) Bytes() int64 { return sw.bytes }

// Reader consumes a snapshot stream section by section, in writing order.
type Reader struct {
	r       io.Reader
	version uint32
}

// Version returns the format version of the snapshot, which tells a
// component whose image changed across versions how to decode its section.
func (sr *Reader) Version() uint32 { return sr.version }

// NewReader validates the snapshot header of r and returns the section
// reader.
func NewReader(r io.Reader) (*Reader, error) {
	hdr := make([]byte, len(Magic)+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("snapshot: read header: %w", err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (not a PIER snapshot)", hdr[:len(Magic)])
	}
	v := binary.LittleEndian.Uint32(hdr[len(Magic):])
	if v == 1 {
		// The common stale checkpoint after an upgrade deserves a precise
		// diagnosis, not a generic number mismatch.
		return nil, fmt.Errorf("snapshot: format version 1 predates the symbol-interned blocking index (this build reads version %d); re-ingest from the source — checkpoints are crash-recovery state, not an archive", Version)
	}
	if v < MinVersion || v > Version {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (this build reads versions %d to %d)", v, MinVersion, Version)
	}
	return &Reader{r: r, version: v}, nil
}

// Section reads the next section, which must be named name, and hands its
// body to decode. Section-order mismatches are reported with both names, so
// a snapshot written by a different pipeline configuration fails loudly.
func (sr *Reader) Section(name string, decode func(io.Reader) error) error {
	return sr.section(name, func(r *io.LimitedReader) error { return decode(r) })
}

func (sr *Reader) section(name string, decode func(*io.LimitedReader) error) error {
	var nameLen uint32
	if err := binary.Read(sr.r, binary.LittleEndian, &nameLen); err != nil {
		return fmt.Errorf("snapshot: read section header (want %q): %w", name, err)
	}
	if nameLen > 1024 {
		return fmt.Errorf("snapshot: section name length %d implausible (corrupt stream?)", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(sr.r, nameBuf); err != nil {
		return fmt.Errorf("snapshot: read section name (want %q): %w", name, err)
	}
	var bodyLen uint64
	if err := binary.Read(sr.r, binary.LittleEndian, &bodyLen); err != nil {
		return fmt.Errorf("snapshot: read section %q length: %w", nameBuf, err)
	}
	if bodyLen > maxSectionSize {
		return fmt.Errorf("snapshot: section %q length %d exceeds limit (corrupt stream?)", nameBuf, bodyLen)
	}
	if got := string(nameBuf); got != name {
		return fmt.Errorf("snapshot: section order mismatch: want %q, found %q", name, got)
	}
	body := &io.LimitedReader{R: sr.r, N: int64(bodyLen)}
	if err := decode(body); err != nil {
		return fmt.Errorf("snapshot: decode section %q: %w", name, err)
	}
	// Skip any bytes the decoder left unread so the stream stays aligned
	// for the next section (gob decoders may not consume trailing padding).
	if _, err := io.Copy(io.Discard, body); err != nil {
		return fmt.Errorf("snapshot: skip section %q remainder: %w", name, err)
	}
	return nil
}

// Flat reads the next section, which must be named name, and returns its
// whole body for a flat decoder (flat.go).
func (sr *Reader) Flat(name string) ([]byte, error) {
	var body []byte
	err := sr.section(name, func(r *io.LimitedReader) error {
		var err error
		body, err = readAll(r)
		return err
	})
	return body, err
}

// readAll reads the rest of a section body. The buffer grows as bytes arrive,
// at most doubling, so a damaged length prefix on a short stream costs what
// the stream holds, not what the prefix claims.
func readAll(r *io.LimitedReader) ([]byte, error) {
	n := r.N
	body := make([]byte, 0, min(n, 64<<10))
	for int64(len(body)) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, int(min(n-int64(len(body)), int64(len(body)))))
		}
		k, err := io.ReadFull(r, body[len(body):min(int64(cap(body)), n)])
		body = body[:len(body)+k]
		if err != nil {
			return nil, fmt.Errorf("section of %d bytes ends after %d: %w", n, len(body), err)
		}
	}
	return body, nil
}

// Gob reads the next section, which must be named name, gob-decoding its
// body into v.
func (sr *Reader) Gob(name string, v any) error {
	return sr.Section(name, func(r io.Reader) error {
		return gob.NewDecoder(r).Decode(v)
	})
}
