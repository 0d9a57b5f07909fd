package metablocking

import (
	"encoding/binary"
	"testing"
)

// FuzzKernelScratchReset drives the epoch-stamped scratch with a byte-script
// of sweeps and accumulations and checks it against a fresh map model every
// sweep. The property under attack is the reset: begin() must make every slot
// logically empty without touching them (O(touched), not O(universe)), so a
// stale stamp that aliases the current epoch — especially across the uint32
// wrap — would surface here as a phantom partner or an inflated count.
//
// Script format, consumed byte-wise:
//
//	op%4 == 0 → new sweep (BeginProbe)
//	op%4 == 1 → jump the epoch to just below the wrap point
//	else      → accumulate a posting list: next byte is the list length,
//	            then 2 bytes per id (mixed dense / overflow / negative)
func FuzzKernelScratchReset(f *testing.F) {
	f.Add([]byte{0, 2, 3, 0, 1, 0, 2, 0, 4, 2, 2, 0, 1, 0, 5, 0, 1, 3, 0, 9})
	f.Add([]byte{1, 0, 2, 2, 0xFF, 0xFF, 0, 0, 1, 0, 2, 2, 0xFF, 0xFF, 0, 0})
	f.Add([]byte{0, 3, 4, 0, 0, 0, 1, 0, 2, 1, 0, 3, 4, 0, 0, 0, 1, 0, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		var kern Kernel
		type pa struct {
			common int
			arcs   float64
		}
		model := map[int]pa{}
		kern.BeginProbe()
		i := 0
		next := func() byte {
			b := script[i]
			i++
			return b
		}
		for i < len(script) {
			switch op := next(); op % 4 {
			case 0:
				kern.BeginProbe()
				clear(model)
			case 1:
				// Park the epoch two sweeps from the wrap so subsequent
				// sweeps cross it. The current sweep's stamps predate the
				// jump, so the model must restart with it.
				kern.epoch = ^uint32(0) - 2
				kern.BeginProbe()
				clear(model)
			default:
				if i >= len(script) {
					break
				}
				n := int(next()) % 9
				ids := make([]int, 0, n)
				for j := 0; j < n && i+1 < len(script); j++ {
					raw := int(binary.LittleEndian.Uint16(script[i:]))
					i += 2
					var id int
					switch raw % 5 {
					case 0:
						id = -1 - raw%64 // probe-like negative id
					case 1:
						id = kernelDenseLimit + raw%1024 // overflow map
					default:
						id = raw % 4096 // dense slot
					}
					ids = append(ids, id)
				}
				inv := 1.0 / float64(1+int(op)%7)
				kern.Accumulate(ids, inv)
				for _, id := range ids {
					a := model[id]
					a.common++
					a.arcs += inv
					model[id] = a
				}
			}
			// Full cross-check after every op: partners and stats must
			// mirror the model exactly, and no stale slot may leak in.
			partners := kern.Partners()
			if len(partners) != len(model) {
				t.Fatalf("op %d: %d partners, model has %d", i, len(partners), len(model))
			}
			for _, id := range partners {
				want, ok := model[id]
				if !ok {
					t.Fatalf("op %d: phantom partner %d (stale slot leaked through reset)", i, id)
				}
				common, arcs := kern.ProbeStats(id)
				if common != want.common || arcs != want.arcs {
					t.Fatalf("op %d: partner %d stats (%d, %v) != model (%d, %v)",
						i, id, common, arcs, want.common, want.arcs)
				}
			}
		}
	})
}
