package queue

import (
	"cmp"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

var intCmp = cmp.Compare[int]

func TestDEPQEmpty(t *testing.T) {
	q := NewDEPQ(intCmp)
	if q.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", q.Len())
	}
	if _, ok := q.Min(); ok {
		t.Error("Min() on empty queue reported ok")
	}
	if _, ok := q.Max(); ok {
		t.Error("Max() on empty queue reported ok")
	}
	if _, ok := q.PopMin(); ok {
		t.Error("PopMin() on empty queue reported ok")
	}
	if _, ok := q.PopMax(); ok {
		t.Error("PopMax() on empty queue reported ok")
	}
}

func TestDEPQSingleElement(t *testing.T) {
	q := NewDEPQ(intCmp)
	q.Push(42)
	if v, ok := q.Min(); !ok || v != 42 {
		t.Errorf("Min() = %v,%v want 42,true", v, ok)
	}
	if v, ok := q.Max(); !ok || v != 42 {
		t.Errorf("Max() = %v,%v want 42,true", v, ok)
	}
	if v, ok := q.PopMax(); !ok || v != 42 {
		t.Errorf("PopMax() = %v,%v want 42,true", v, ok)
	}
	if q.Len() != 0 {
		t.Errorf("Len() = %d after pop, want 0", q.Len())
	}
}

func TestDEPQTwoElements(t *testing.T) {
	for _, pair := range [][2]int{{1, 2}, {2, 1}, {5, 5}} {
		q := NewDEPQ(intCmp)
		q.Push(pair[0])
		q.Push(pair[1])
		lo, hi := pair[0], pair[1]
		if hi < lo {
			lo, hi = hi, lo
		}
		if v, _ := q.Min(); v != lo {
			t.Errorf("pair %v: Min() = %d, want %d", pair, v, lo)
		}
		if v, _ := q.Max(); v != hi {
			t.Errorf("pair %v: Max() = %d, want %d", pair, v, hi)
		}
	}
}

// popAllMax drains the queue from the max end.
func popAllMax(q *DEPQ[int]) []int {
	var out []int
	for {
		v, ok := q.PopMax()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// popAllMin drains the queue from the min end.
func popAllMin(q *DEPQ[int]) []int {
	var out []int
	for {
		v, ok := q.PopMin()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

func TestDEPQHeapsortAscending(t *testing.T) {
	f := func(xs []int) bool {
		q := NewDEPQ(intCmp)
		for _, x := range xs {
			q.Push(x)
		}
		got := popAllMin(q)
		want := append([]int(nil), xs...)
		sort.Ints(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDEPQHeapsortDescending(t *testing.T) {
	f := func(xs []int) bool {
		q := NewDEPQ(intCmp)
		for _, x := range xs {
			q.Push(x)
		}
		got := popAllMax(q)
		want := append([]int(nil), xs...)
		sort.Sort(sort.Reverse(sort.IntSlice(want)))
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDEPQRandomOps drives the queue with a random mix of operations and
// compares every result against a naive sorted-slice reference.
func TestDEPQRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		q := NewDEPQ(intCmp)
		var ref []int
		for op := 0; op < 500; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // push
				x := rng.Intn(100)
				q.Push(x)
				ref = append(ref, x)
				sort.Ints(ref)
			case r < 7: // pop min
				v, ok := q.PopMin()
				if len(ref) == 0 {
					if ok {
						t.Fatalf("trial %d op %d: PopMin ok on empty", trial, op)
					}
					continue
				}
				if !ok || v != ref[0] {
					t.Fatalf("trial %d op %d: PopMin = %d,%v want %d", trial, op, v, ok, ref[0])
				}
				ref = ref[1:]
			case r < 9: // pop max
				v, ok := q.PopMax()
				if len(ref) == 0 {
					if ok {
						t.Fatalf("trial %d op %d: PopMax ok on empty", trial, op)
					}
					continue
				}
				if !ok || v != ref[len(ref)-1] {
					t.Fatalf("trial %d op %d: PopMax = %d,%v want %d", trial, op, v, ok, ref[len(ref)-1])
				}
				ref = ref[:len(ref)-1]
			default: // peeks
				if len(ref) > 0 {
					if v, _ := q.Min(); v != ref[0] {
						t.Fatalf("trial %d op %d: Min = %d want %d", trial, op, v, ref[0])
					}
					if v, _ := q.Max(); v != ref[len(ref)-1] {
						t.Fatalf("trial %d op %d: Max = %d want %d", trial, op, v, ref[len(ref)-1])
					}
				}
			}
			if q.Len() != len(ref) {
				t.Fatalf("trial %d op %d: Len = %d want %d", trial, op, q.Len(), len(ref))
			}
		}
	}
}

// TestDEPQIntervalInvariant checks the interval-heap structural invariant
// after random pushes and pops.
func TestDEPQIntervalInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewDEPQ(intCmp)
	check := func() {
		n := len(q.a)
		for i := 0; i+1 < n; i += 2 {
			if q.a[i+1] < q.a[i] {
				t.Fatalf("node %d interval inverted: [%d,%d]", i/2, q.a[i], q.a[i+1])
			}
		}
		for k := 1; 2*k < n; k++ {
			p := (k - 1) / 2
			lo, hi := q.a[2*p], q.a[2*p+1]
			if q.a[2*k] < lo {
				t.Fatalf("child %d min %d below parent min %d", k, q.a[2*k], lo)
			}
			cmax := q.a[2*k]
			if 2*k+1 < n {
				cmax = q.a[2*k+1]
			}
			if cmax > hi {
				t.Fatalf("child %d max %d above parent max %d", k, cmax, hi)
			}
		}
	}
	for op := 0; op < 3000; op++ {
		switch {
		case rng.Intn(3) != 0 || q.Len() == 0:
			q.Push(rng.Intn(1000))
		case rng.Intn(2) == 0:
			q.PopMin()
		default:
			q.PopMax()
		}
		check()
	}
}

func TestDEPQDuplicateValues(t *testing.T) {
	q := NewDEPQ(intCmp)
	for i := 0; i < 100; i++ {
		q.Push(5)
	}
	for i := 0; i < 50; i++ {
		if v, ok := q.PopMin(); !ok || v != 5 {
			t.Fatalf("PopMin = %d,%v want 5,true", v, ok)
		}
		if v, ok := q.PopMax(); !ok || v != 5 {
			t.Fatalf("PopMax = %d,%v want 5,true", v, ok)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d want 0", q.Len())
	}
}
