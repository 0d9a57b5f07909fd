package pier

import (
	"context"
	"testing"
)

// TestCustomMatcherReadsRegistryWithoutAllocating prices the adapter a
// custom Matcher runs behind: on two registered profiles it reads both from
// the registry and copies nothing.
func TestCustomMatcherReadsRegistryWithoutAllocating(t *testing.T) {
	p, err := NewPipeline(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	pushed := []Profile{
		{Key: "x", Attributes: Attr("title", "the matrix 1999")},
		{Key: "y", Attributes: Attr("title", "matrix the 1999")},
	}
	if err := p.Push(pushed); err != nil {
		t.Fatal(err)
	}
	var got [2]Profile
	m := customMatcher(func(_ context.Context, x, y Profile) (bool, error) {
		got = [2]Profile{x, y}
		return true, nil
	}, p.public)
	x, y := toInternal(0, pushed[0]), toInternal(1, pushed[1])
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() { m(ctx, x, y) }); allocs != 0 {
		t.Errorf("custom matcher adapter: %v allocs per comparison, want 0", allocs)
	}
	if got[0].Key != "x" || got[1].Key != "y" {
		t.Errorf("adapter handed %q and %q, want x and y", got[0].Key, got[1].Key)
	}
}
