package bench

import (
	"testing"

	"pier/internal/lib"
)

func TestBench(t *testing.T) { lib.FromBench() }
