package blocking

import (
	"fmt"

	"pier/internal/intern"
	"pier/internal/profile"
)

// Verify checks the collection's structural invariants and returns the first
// violation, or nil. The invariants tie together the indexes the incremental
// blocking stage maintains:
//
//   - every live block sits in the shard its symbol hashes to and carries the
//     key string its symbol resolves to;
//   - every live block is non-empty and, when purging is enabled, within the
//     purge threshold (Add drops any block the moment it exceeds it);
//   - no symbol is both live and tombstoned as purged;
//   - every block member is a registered profile, stored on the side matching
//     its Source, at most once per block;
//   - the profile→blocks index and the blocks agree in both directions:
//     each ofProf symbol is live-and-containing or dead, and each block
//     member lists the block's symbol in its ofProf entry.
//
// Verify is O(total block memberships); the correctness harness calls it on
// final states, and strategies call it per increment under
// core.Config.CheckInvariants.
func (c *Collection) Verify() error {
	for si := 0; si < c.store.NumShards(); si++ {
		sh := &c.shards[si]
		var err error
		c.store.Range(si, func(key uint32, b *Block) bool {
			sym := intern.Sym(key)
			err = c.verifyBlock(sh, si, sym, b)
			return err == nil
		})
		if err != nil {
			return err
		}
		for sym := range sh.purged {
			if sym&c.mask != intern.Sym(si) {
				return fmt.Errorf("blocking: tombstone for symbol %d stored in shard %d, belongs to %d", sym, si, sym&c.mask)
			}
		}
	}
	for id, syms := range c.ofProf {
		if _, ok := c.profiles[id]; !ok {
			return fmt.Errorf("blocking: ofProf entry for unregistered profile %d", id)
		}
		for _, sym := range syms {
			b, live := c.getBlock(sym)
			if !live {
				continue // purged after the profile was added: allowed
			}
			if !containsID(b.A, id) && !containsID(b.B, id) {
				return fmt.Errorf("blocking: profile %d indexes live block %q but is not a member", id, b.Key)
			}
		}
	}
	c.maintainStore() // Verify faults spilled blocks in; trim back to budget
	return nil
}

// verifyBlock checks one live block's invariants against the shard it is
// stored in.
func (c *Collection) verifyBlock(sh *shard, si int, sym intern.Sym, b *Block) error {
	if b.Sym != sym {
		return fmt.Errorf("blocking: block stored under symbol %d reports symbol %d", sym, b.Sym)
	}
	if sym&c.mask != intern.Sym(si) {
		return fmt.Errorf("blocking: block %q (symbol %d) stored in shard %d, belongs to %d", b.Key, sym, si, sym&c.mask)
	}
	if want := c.tab.StringOf(sym); b.Key != want {
		return fmt.Errorf("blocking: block stored under %q reports key %q", want, b.Key)
	}
	if b.Size() == 0 {
		return fmt.Errorf("blocking: empty block %q retained", b.Key)
	}
	if c.maxBlockSize > 0 && b.Size() > c.maxBlockSize {
		return fmt.Errorf("blocking: block %q has %d profiles > purge threshold %d", b.Key, b.Size(), c.maxBlockSize)
	}
	if _, dead := sh.purged[sym]; dead {
		return fmt.Errorf("blocking: block %q is both live and purged", b.Key)
	}
	if err := c.verifyMembers(b, profile.SourceA, b.A); err != nil {
		return err
	}
	return c.verifyMembers(b, profile.SourceB, b.B)
}

// verifyMembers checks one side of a block: registered profiles of the right
// source, no duplicates, back-linked via ofProf.
func (c *Collection) verifyMembers(b *Block, src profile.Source, ids []int) error {
	seen := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("blocking: profile %d appears twice in block %q", id, b.Key)
		}
		seen[id] = struct{}{}
		p, ok := c.profiles[id]
		if !ok {
			return fmt.Errorf("blocking: block %q contains unregistered profile %d", b.Key, id)
		}
		if p.Source != src {
			return fmt.Errorf("blocking: profile %d (source %v) stored on the %v side of block %q", id, p.Source, src, b.Key)
		}
		back := false
		for _, sym := range c.ofProf[id] {
			if sym == b.Sym {
				back = true
				break
			}
		}
		if !back {
			return fmt.Errorf("blocking: block %q member %d lacks the back-link in ofProf", b.Key, id)
		}
	}
	return nil
}

func containsID(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// VerifyGhost checks the block-ghosting post-condition of [17]: with b_min
// the smallest input block, every kept block must satisfy |b| <= |b_min|/beta
// and every dropped block must violate it. It returns nil for beta <= 0
// (ghosting disabled). The harness uses it as the ghosting-consistency
// invariant; it is exact because Ghost never modifies block contents.
func VerifyGhost(in, kept []*Block, beta float64) error {
	if beta <= 0 || len(in) == 0 {
		return nil
	}
	min := in[0].Size()
	for _, b := range in[1:] {
		if s := b.Size(); s < min {
			min = s
		}
	}
	limit := float64(min) / beta
	keptSet := make(map[*Block]struct{}, len(kept))
	for _, b := range kept {
		keptSet[b] = struct{}{}
	}
	for _, b := range in {
		_, isKept := keptSet[b]
		within := float64(b.Size()) <= limit
		if within && !isKept {
			return fmt.Errorf("blocking: ghosting dropped block %q (size %d <= limit %.2f)", b.Key, b.Size(), limit)
		}
		if !within && isKept {
			return fmt.Errorf("blocking: ghosting kept block %q (size %d > limit %.2f)", b.Key, b.Size(), limit)
		}
	}
	return nil
}
