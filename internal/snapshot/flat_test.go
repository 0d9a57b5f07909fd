package snapshot

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
)

// TestSetRoundTrip checks AppendSet/Set, including the extremes of the key
// range, and that a gap that overflows 64 bits is an error.
func TestSetRoundTrip(t *testing.T) {
	keys := []uint64{0, 1, 2, 1 << 32, 1<<32 + 5, ^uint64(0)}
	data := AppendSet(nil, keys)
	d := NewDecoder(data)
	if got := d.Set(); d.Finish() != nil || !slices.Equal(got, keys) {
		t.Fatalf("Set() = %v (err %v), want %v", got, d.Err(), keys)
	}
	over := binary.AppendUvarint(nil, 2)
	over = binary.AppendUvarint(over, ^uint64(0)-1)
	over = binary.AppendUvarint(over, 1)
	if d := NewDecoder(over); d.Set() != nil || d.Err() == nil {
		t.Fatal("a set whose second key overflows 64 bits decoded")
	}
}

// TestDecoderIsCanonicalAndBounded: a padded varint is rejected, and a
// count that cannot fit in the bytes left fails before it is used.
func TestDecoderIsCanonicalAndBounded(t *testing.T) {
	if d := NewDecoder([]byte{0x85, 0x00}); d.Uvarint() != 0 || d.Err() == nil {
		t.Fatal("a padded uvarint decoded")
	}
	if d := NewDecoder([]byte{0x85, 0x01}); d.Uvarint() != 133 || d.Finish() != nil {
		t.Fatalf("uvarint 133 did not decode: %v", d.Err())
	}
	if d := NewDecoder(append(binary.AppendUvarint(nil, 3), 1, 2)); d.Count(1) != 0 || d.Err() == nil {
		t.Fatal("a count of 3 over 2 bytes was accepted")
	}
	if d := NewDecoder(append(binary.AppendUvarint(nil, 2), 1, 2, 3)); d.Count(2) != 0 || d.Err() == nil {
		t.Fatal("a count of 2 two-byte items over 3 bytes was accepted")
	}
	data := AppendString(AppendString(nil, "alpha"), "")
	data = AppendBool(data, true)
	d := NewDecoder(data)
	if a, b, c := d.String(), d.String(), d.Bool(); a != "alpha" || b != "" || !c || d.Finish() != nil {
		t.Fatalf("decoded %q %q %v (err %v)", a, b, c, d.Err())
	}
	if d := NewDecoder([]byte{2}); d.Bool() || d.Err() == nil {
		t.Fatal("bool byte 2 decoded")
	}
}

// TestFlatSectionRoundTrip writes flat and gob sections and reads them back,
// with the reader reporting the writer's version.
func TestFlatSectionRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.Flat("a", []byte("hello"))
	w.Flat("b", nil)
	if err := w.Gob("c", 42); err != nil {
		t.Fatal(err)
	}
	if w.Bytes() != int64(buf.Len()) {
		t.Fatalf("writer counted %d bytes, wrote %d", w.Bytes(), buf.Len())
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != Version {
		t.Fatalf("Version() = %d, want %d", r.Version(), Version)
	}
	a, err := r.Flat("a")
	if err != nil || string(a) != "hello" {
		t.Fatalf("Flat(a) = %q, %v", a, err)
	}
	if b, err := r.Flat("b"); err != nil || len(b) != 0 {
		t.Fatalf("Flat(b) = %q, %v", b, err)
	}
	var c int
	if err := r.Gob("c", &c); err != nil || c != 42 {
		t.Fatalf("Gob(c) = %d, %v", c, err)
	}
}

// TestFlatSectionShortStream: a section header claiming a body near the
// 1 GiB limit on a stream that ends after a few bytes fails without
// allocating what the header claims.
func TestFlatSectionShortStream(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.Flat("a", []byte("hello"))
	raw := buf.Bytes()
	// The body length follows the 12-byte header, the name length and "a".
	binary.LittleEndian.PutUint64(raw[12+4+1:], maxSectionSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Flat("a")
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a section longer than its stream was read")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("reading the short section allocated %d bytes", n)
	}
}
