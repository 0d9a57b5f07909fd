package metablocking

import "fmt"

// Verification helpers for the meta-blocking layer, run by the candidate
// generator under core.Config.CheckInvariants (which the correctness harness
// in internal/check turns on). They encode the contracts the prioritization
// strategies rely on: candidate lists arrive in descending priority order,
// and pruned graphs retain only above-average weights.

// VerifyDescending checks that cs is sorted by descending priority under the
// weight order (Less): each element must not order strictly before its
// predecessor. Candidates, Kernel.Candidates and IWNP return such lists, and
// the strategies' sequential routing depends on the order.
func VerifyDescending(cs []Comparison) error {
	for i := 1; i < len(cs); i++ {
		if Less(cs[i-1], cs[i]) {
			return fmt.Errorf("metablocking: list not in descending priority order at %d: %v before %v", i, cs[i-1], cs[i])
		}
	}
	return nil
}

// VerifyPruned checks the weight-monotonicity contract of mean-threshold edge
// pruning (IWNP): every retained comparison must weigh at least the mean
// weight of the original list, and every dropped one strictly less. in is the
// pre-pruning list, kept the pruning output. Because IWNP reuses the input
// slice for its result, callers must pass a copy of the input.
func VerifyPruned(in, kept []Comparison) error {
	if len(in) == 0 {
		if len(kept) != 0 {
			return fmt.Errorf("metablocking: pruning invented %d comparisons from an empty list", len(kept))
		}
		return nil
	}
	sum := 0.0
	for _, c := range in {
		sum += c.Weight
	}
	mean := sum / float64(len(in))
	keptSet := make(map[uint64]struct{}, len(kept))
	for _, c := range kept {
		if c.Weight < mean {
			return fmt.Errorf("metablocking: pruning kept %v below mean weight %.4f", c, mean)
		}
		keptSet[c.Key()] = struct{}{}
	}
	for _, c := range in {
		if _, ok := keptSet[c.Key()]; !ok && c.Weight >= mean {
			return fmt.Errorf("metablocking: pruning dropped %v despite weight >= mean %.4f", c, mean)
		}
	}
	return nil
}
