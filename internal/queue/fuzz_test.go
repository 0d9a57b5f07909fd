package queue

import (
	"sort"
	"testing"
)

// refModel is the reference double-ended priority queue: a sorted slice. Its
// behavior is trivially correct; the fuzz targets check the interval heap
// against it operation by operation.
type refModel struct{ a []int }

func (r *refModel) push(v int) {
	i := sort.SearchInts(r.a, v)
	r.a = append(r.a, 0)
	copy(r.a[i+1:], r.a[i:])
	r.a[i] = v
}

func (r *refModel) popMin() (int, bool) {
	if len(r.a) == 0 {
		return 0, false
	}
	v := r.a[0]
	r.a = r.a[1:]
	return v, true
}

func (r *refModel) popMax() (int, bool) {
	if len(r.a) == 0 {
		return 0, false
	}
	v := r.a[len(r.a)-1]
	r.a = r.a[:len(r.a)-1]
	return v, true
}

// FuzzIntervalHeap drives the DEPQ with an arbitrary operation sequence
// decoded from the fuzz input and checks every result and every intermediate
// structure against the sorted-slice reference model.
func FuzzIntervalHeap(f *testing.F) {
	f.Add([]byte{0, 10, 0, 5, 1, 2})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 2, 2, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		q := NewDEPQ(intCmp)
		ref := &refModel{}
		for i := 0; i < len(ops); i++ {
			switch ops[i] % 3 {
			case 0: // push next byte's value
				i++
				if i >= len(ops) {
					break
				}
				v := int(ops[i])
				q.Push(v)
				ref.push(v)
			case 1:
				got, gotOK := q.PopMin()
				want, wantOK := ref.popMin()
				if gotOK != wantOK || got != want {
					t.Fatalf("PopMin = (%d, %v), reference says (%d, %v)", got, gotOK, want, wantOK)
				}
			case 2:
				got, gotOK := q.PopMax()
				want, wantOK := ref.popMax()
				if gotOK != wantOK || got != want {
					t.Fatalf("PopMax = (%d, %v), reference says (%d, %v)", got, gotOK, want, wantOK)
				}
			}
			if q.Len() != len(ref.a) {
				t.Fatalf("Len = %d, reference has %d", q.Len(), len(ref.a))
			}
			if err := q.Verify(); err != nil {
				t.Fatalf("invariant violated after op %d: %v", i, err)
			}
			if min, ok := q.Min(); ok && min != ref.a[0] {
				t.Fatalf("Min = %d, reference says %d", min, ref.a[0])
			}
			if max, ok := q.Max(); ok && max != ref.a[len(ref.a)-1] {
				t.Fatalf("Max = %d, reference says %d", max, ref.a[len(ref.a)-1])
			}
		}
	})
}

// FuzzBounded checks the bounded best-first queue against the reference — a
// full queue must keep exactly the best capacity elements — and PushAll
// against pushing the same elements one by one: the same PopBest sequence,
// the same Len, the same drops at capacity, also when a Snapshot→Restore
// lands in the middle of a bulk-loaded run. The input is an op stream: 0
// pushes the next byte, 1 pops, 2 bulk-loads the next n bytes (n from the
// byte after the op), 3 snapshots the queue and continues on a restored copy.
func FuzzBounded(f *testing.F) {
	f.Add(uint8(4), []byte{0, 9, 0, 1, 0, 5, 0, 7, 0, 3, 0, 8})
	f.Add(uint8(3), []byte{2, 6, 9, 1, 5, 7, 3, 8, 1, 3, 1, 0, 4, 1})
	f.Add(uint8(15), []byte{2, 5, 4, 4, 2, 9, 0, 3, 1, 2, 3, 7, 7, 1, 1})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		cap := int(capacity%16) + 1
		bulk := NewBounded(cap, intCmp) // takes PushAll
		each := NewBounded(cap, intCmp) // takes the same elements by Push
		ref := &refModel{}
		push := func(v int) {
			each.Push(v)
			ref.push(v)
			if len(ref.a) > cap {
				ref.a = ref.a[len(ref.a)-cap:] // keep the best cap values
			}
		}
		pop := func(when string) bool {
			got, gotOK := bulk.PopBest()
			one, oneOK := each.PopBest()
			want, wantOK := ref.popMax()
			if gotOK != wantOK || got != want || oneOK != wantOK || one != want {
				t.Fatalf("%s: PopBest = (%d, %v) bulk, (%d, %v) one by one; reference says (%d, %v)",
					when, got, gotOK, one, oneOK, want, wantOK)
			}
			return gotOK
		}
		for i := 0; i < len(ops); i++ {
			switch ops[i] % 4 {
			case 0:
				if i++; i < len(ops) {
					bulk.Push(int(ops[i]))
					push(int(ops[i]))
				}
			case 1:
				pop("op")
			case 2:
				n := 0
				if i++; i < len(ops) {
					n = int(ops[i] % 8)
				}
				var xs []int
				for ; n > 0 && i+1 < len(ops); n-- {
					i++
					xs = append(xs, int(ops[i]))
				}
				bulk.PushAll(xs)
				for _, v := range xs {
					push(v)
				}
			case 3:
				restored := NewBounded(cap, intCmp)
				restored.Restore(bulk.Snapshot())
				bulk = restored
			}
			if bulk.Len() != each.Len() || bulk.Len() != len(ref.a) {
				t.Fatalf("op %d: Len = %d bulk, %d one by one, reference holds %d", i, bulk.Len(), each.Len(), len(ref.a))
			}
			if got, ok := bulk.PeekBest(); ok && got != ref.a[len(ref.a)-1] {
				t.Fatalf("op %d: PeekBest = %d, reference says %d", i, got, ref.a[len(ref.a)-1])
			}
			if err := bulk.Verify(); err != nil {
				t.Fatal(err)
			}
		}
		for pop("drain") {
		}
	})
}
