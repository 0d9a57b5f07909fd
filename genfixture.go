//go:build ignore

// Writes a mid-run checkpoint of the movie workload used by
// checkpoint_test.go to the path given as its one argument, in the container
// format of the build that runs it. Run from the repo root, e.g.
//
//	go run genfixture.go testdata/checkpoint_v4.snap
//
// testdata/checkpoint_v2.snap and testdata/checkpoint_v3.snap were written
// this way by the last builds of formats v2 and v3. They pin that those
// images still restore, so do not regenerate them: a later build would write
// its own format instead.
package main

import (
	"fmt"
	"os"

	"pier"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run genfixture.go <output path>")
		os.Exit(2)
	}
	out := os.Args[1]
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
	f, err := os.Create(out)
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
	fmt.Printf("wrote %s (%d bytes)\n", out, n)
}
