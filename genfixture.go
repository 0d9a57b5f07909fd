//go:build ignore

// Generates testdata/checkpoint_v2.snap: a mid-run checkpoint of the movie
// workload used by checkpoint_test.go. Run with `go run genfixture.go` from
// the repo root. The checked-in file was written in container format v2 and
// pins that v2 images still restore; a build at a later format version writes
// that version, so do not regenerate it until v2 support is dropped.
package main

import (
	"fmt"
	"os"

	"pier"
)

func main() {
	profiles := []pier.Profile{
		{Key: "dupA-a", Attributes: pier.Attr("title", "The Matrix 1999 Wachowski")},
		{Key: "dupA-b", SourceB: true, Attributes: pier.Attr("name", "Matrix, The (1999) dir. Wachowski")},
		{Key: "dupB-a", Attributes: pier.Attr("title", "Blade Runner 1982 Ridley Scott")},
		{Key: "dupB-b", SourceB: true, Attributes: pier.Attr("name", "Blade Runner (1982), Scott Ridley")},
		{Key: "dupC-a", Attributes: pier.Attr("title", "Alien 1979 Ridley Scott")},
		{Key: "dupC-b", SourceB: true, Attributes: pier.Attr("name", "Alien (1979) by R. Scott")},
		{Key: "dupD-a", Attributes: pier.Attr("title", "Heat 1995 Michael Mann")},
		{Key: "dupD-b", SourceB: true, Attributes: pier.Attr("name", "Heat (1995), dir: Michael Mann")},
		{Key: "solo-a", Attributes: pier.Attr("title", "Completely Unique Documentary About Bees")},
		{Key: "solo-b", SourceB: true, Attributes: pier.Attr("name", "Another Unrelated Short Film Nobody Saw")},
	}
	p, err := pier.NewPipeline(pier.Options{Algorithm: pier.IPES, CleanClean: true, CheckInvariants: true})
	if err != nil {
		panic(err)
	}
	for _, pr := range profiles[:len(profiles)/2] {
		if err := p.Push([]pier.Profile{pr}); err != nil {
			panic(err)
		}
	}
	f, err := os.Create("testdata/checkpoint_v2.snap")
	if err != nil {
		panic(err)
	}
	n, err := p.Checkpoint(f)
	if err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	p.Stop()
	fmt.Printf("wrote testdata/checkpoint_v2.snap (%d bytes)\n", n)
}
