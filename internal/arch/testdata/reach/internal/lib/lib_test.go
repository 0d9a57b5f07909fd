package lib

import "testing"

func TestDead(t *testing.T) { Dead() }
