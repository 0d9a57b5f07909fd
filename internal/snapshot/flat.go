package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Flat sections. The three sections that carry nearly all of a checkpoint's
// bytes — the blocking collection, the executed-pair set and the profile
// registry — are not gob: their owners append them with the functions below
// and read them back through a Decoder. The encoding is a plain sequence of
// fields with no type information: unsigned integers as uvarints, signed ones
// as zigzag varints, strings as a uvarint length and the bytes, and strictly
// ascending key sets as a count, the first key and then each gap minus one.
//
// The encoding is canonical: a Decoder rejects a varint longer than its
// minimal form, so every section a decoder accepts re-encodes to the same
// bytes. It is also bounded: every count and length is checked against the
// bytes left in the section before anything is allocated for it, so a damaged
// prefix fails with an error instead of a huge allocation.

// AppendString appends s as its uvarint length followed by its bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBool appends b as one byte, 0 or 1.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendSet appends the strictly ascending keys as a uvarint count, the first
// key, and each later key's gap to its predecessor minus one, all uvarints.
// Keys that are not strictly ascending are a programming error and panic.
func AppendSet(buf []byte, keys []uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for i, k := range keys {
		if i == 0 {
			buf = binary.AppendUvarint(buf, k)
			continue
		}
		if k <= keys[i-1] {
			panic(fmt.Sprintf("snapshot: set keys not strictly ascending at %d", i))
		}
		buf = binary.AppendUvarint(buf, k-keys[i-1]-1)
	}
	return buf
}

// Decoder reads the fields of one flat section in the order they were
// appended. The first failure sticks: later reads return zero values, and Err
// and Finish report it.
//
// The strings a Decoder returns share one copy of the whole section, made at
// the first String call, so decoding a section costs one string allocation
// rather than one per string; any one of them keeps that copy alive.
type Decoder struct {
	data []byte // the whole section
	pos  int    // offset of the first unread byte
	str  string // string(data), once a String call needed it
	err  error
}

// NewDecoder returns a Decoder over data, which it does not copy.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// errShort is the failure of a read past the end of the section.
var errShort = errors.New("section ends early")

// Failf records a failure of the caller's own validation, unless one was
// recorded already, and stops every later read.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.pos = len(d.data)
}

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// left returns the number of unread bytes.
func (d *Decoder) left() int { return len(d.data) - d.pos }

// Finish returns the first failure, or an error when bytes are left unread.
func (d *Decoder) Finish() error {
	if d.err == nil && d.left() > 0 {
		d.err = fmt.Errorf("%d trailing bytes", d.left())
	}
	return d.err
}

// Uvarint reads one minimal uvarint.
func (d *Decoder) Uvarint() uint64 {
	// The one-byte case inline: most counts, lengths and gaps take it.
	if d.pos < len(d.data) && d.data[d.pos] < 0x80 {
		d.pos++
		return uint64(d.data[d.pos-1])
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	switch {
	case n == 0:
		d.Failf("%w", errShort)
		return 0
	case n < 0:
		d.Failf("uvarint overflows 64 bits")
		return 0
	case d.data[d.pos+n-1] == 0:
		d.Failf("uvarint of %d bytes is not minimal", n)
		return 0
	}
	d.pos += n
	return v
}

// Varint reads one minimal zigzag varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a varint that must fit an int.
func (d *Decoder) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.Failf("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// Count reads a uvarint count of items that each take at least min bytes
// (min >= 1), and fails unless that many items fit in the unread bytes. Its
// result is therefore safe to allocate for.
func (d *Decoder) Count(min int) int {
	n := d.Uvarint()
	if n > uint64(d.left()) || n*uint64(min) > uint64(d.left()) {
		d.Failf("count %d exceeds the %d bytes left", n, d.left())
		return 0
	}
	return int(n)
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	if d.pos == len(d.data) {
		d.Failf("%w", errShort)
		return false
	}
	d.pos++
	switch b := d.data[d.pos-1]; b {
	case 0, 1:
		return b == 1
	default:
		d.Failf("bool byte %d", b)
		return false
	}
}

// String reads a string written by AppendString.
func (d *Decoder) String() string {
	n := d.Count(1)
	if n == 0 {
		return ""
	}
	if d.str == "" {
		d.str = string(d.data)
	}
	d.pos += n
	return d.str[d.pos-n : d.pos]
}

// Set reads a key set written by AppendSet.
func (d *Decoder) Set() []uint64 {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	keys := make([]uint64, n)
	for i := range keys {
		v := d.Uvarint()
		if i > 0 {
			prev := keys[i-1]
			if v >= ^uint64(0)-prev {
				d.Failf("set key %d overflows 64 bits", i)
			}
			v += prev + 1
		}
		if d.err != nil {
			return nil
		}
		keys[i] = v
	}
	return keys
}

// Unread returns the unread bytes without consuming them, for a field whose
// own decoder works on a byte slice; Advance then consumes it.
func (d *Decoder) Unread() []byte { return d.data[d.pos:] }

// Advance consumes the front of the unread bytes up to rest, the suffix of
// Unread's result that a caller's own decoder left over.
func (d *Decoder) Advance(rest []byte) { d.pos = len(d.data) - len(rest) }
