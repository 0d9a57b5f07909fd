package pier

import (
	"bytes"
	"io"
	"testing"

	"pier/internal/blocking"
	"pier/internal/snapshot"
	"pier/internal/storage"
	"pier/internal/stream"
)

// flatSections are the flat section decoders of a checkpoint, each paired
// with the encoder that must reproduce what it accepted.
var flatSections = []struct {
	name      string
	roundTrip func(data []byte) ([]byte, error)
}{
	{"pipeline", func(data []byte) ([]byte, error) {
		img, err := decodePipelineImage(data)
		if err != nil {
			return nil, err
		}
		return img.appendImage(nil), nil
	}},
	{"collection", func(data []byte) ([]byte, error) {
		c, err := blocking.DecodeImage(data, nil, 1, storage.Config{})
		if err != nil {
			return nil, err
		}
		return c.AppendImage(nil)
	}},
	{"accounting", func(data []byte) ([]byte, error) {
		a, err := stream.DecodeAccounting(data)
		if err != nil {
			return nil, err
		}
		return a.AppendImage(nil), nil
	}},
}

// sectionsOf returns the flat sections of a pipeline checkpoint, in
// flatSections order.
func sectionsOf(t testing.TB, snap []byte) [][]byte {
	sr, err := snapshot.NewReader(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := sr.Flat("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	live, err := sr.Flat("live")
	if err != nil {
		t.Fatal(err)
	}
	lr, err := snapshot.NewReader(bytes.NewReader(live))
	if err != nil {
		t.Fatal(err)
	}
	skip := func(name string) {
		if err := lr.Section(name, func(io.Reader) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	skip("meta")
	col, err := lr.Flat("collection")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"strategy", "findk", "clusters", "recorder"} {
		skip(name)
	}
	acc, err := lr.Flat("accounting")
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{pipe, col, acc}
}

// FuzzCheckpointSections runs each flat section decoder on arbitrary bytes:
// the first byte picks the section, the rest is its body. A decoder must
// return an error or a value that re-encodes to exactly the body, and must
// never panic. It is seeded with the sections of a real checkpoint.
func FuzzCheckpointSections(f *testing.F) {
	p, err := NewPipeline(Options{CleanClean: true, Window: 6})
	if err != nil {
		f.Fatal(err)
	}
	for i, title := range []string{
		"The Matrix 1999 Wachowski", "Matrix, The (1999) dir. Wachowski",
		"Blade Runner 1982 Ridley Scott", "Blade Runner (1982), Scott Ridley",
		"Alien 1979 Ridley Scott", "Alien (1979) by R. Scott",
		"Heat 1995 Michael Mann", "Heat (1995), dir: Michael Mann",
	} {
		pr := Profile{Key: title[:4], SourceB: i%2 == 1, Attributes: Attr("title", title)}
		if err := p.Push([]Profile{pr}); err != nil {
			f.Fatal(err)
		}
	}
	p.Stop()
	var snap bytes.Buffer
	if _, err := p.Checkpoint(&snap); err != nil {
		f.Fatal(err)
	}
	for i, body := range sectionsOf(f, snap.Bytes()) {
		f.Add(append([]byte{byte(i)}, body...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sec := flatSections[int(data[0])%len(flatSections)]
		body := data[1:]
		again, err := sec.roundTrip(body)
		if err != nil {
			return
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("%s section of %d bytes re-encodes to %d different bytes", sec.name, len(body), len(again))
		}
	})
}

// TestPipelineImageRoundTrip checks the pipeline section on its own: the
// registry re-encodes byte for byte after a restore, and a truncated image
// is an error.
func TestPipelineImageRoundTrip(t *testing.T) {
	img := pipelineImage{
		Profiles: []Profile{
			{Key: "a", Attributes: Attr("title", "The Matrix 1999", "year", "1999")},
			{Key: "b", SourceB: true},
		},
		NextID: 2,
	}
	data := img.appendImage(nil)
	got, err := decodePipelineImage(data)
	if err != nil {
		t.Fatal(err)
	}
	if again := got.appendImage(nil); !bytes.Equal(again, data) {
		t.Fatalf("image re-encodes to %x, was %x", again, data)
	}
	if got.Profiles[0].Attributes[1].Value != "1999" || !got.Profiles[1].SourceB || got.NextID != 2 {
		t.Fatalf("decoded %+v, want %+v", got, img)
	}
	for n := range data {
		if _, err := decodePipelineImage(data[:n]); err == nil {
			t.Fatalf("image truncated to %d of %d bytes decoded", n, len(data))
		}
	}
}
