package nftl

import (
	"errors"
	"fmt"

	"flashswl/internal/nand"
	"flashswl/internal/obs"
)

// The NFTL Cleaner: garbage collection merges a virtual block's primary and
// replacement blocks into a fresh primary block, erasing the old pair. The
// victim is chosen with the same greedy cost-benefit rule as the FTL
// cleaner — one unit of benefit per invalid page, one unit of cost per valid
// page to copy — over a scan of the physical blocks (paper §5.1). The
// watermark loop, the erase policy, and EraseBlockSet are the shared
// skeleton (internal/gc).

// validPages returns how many of the VBA's offsets have a live copy, plus
// the total pages programmed across its primary and replacement blocks.
func (d *Driver) validPages(vba int) (valid, written int) {
	for i := range d.offScratch {
		d.offScratch[i] = 0
	}
	if rb := d.replacement[vba]; rb != noBlock {
		base := int(rb) * d.ppb
		n := int(d.replWrites[rb])
		written += n
		for i := 0; i < n; i++ {
			off := int(d.offsets[base+i])
			if off == deadOffset {
				continue // burnt slot: written but holds nothing
			}
			w, m := off>>6, uint64(1)<<uint(off&63)
			if d.offScratch[w]&m == 0 {
				d.offScratch[w] |= m
				valid++
			}
		}
	}
	if pb := d.primary[vba]; pb != noBlock {
		base := int(pb) * d.ppb
		for off := 0; off < d.ppb; off++ {
			if !d.dev.IsPageProgrammed(base + off) {
				continue
			}
			written++
			w, m := off>>6, uint64(1)<<uint(off&63)
			if d.offScratch[w]&m == 0 {
				// Not superseded by the replacement block.
				valid++
			}
		}
	}
	return valid, written
}

// pickVictim scans the physical blocks for a replacement block whose pair
// has more invalid than valid pages; among such candidates the pair with
// the lowest combined erase count wins (the dynamic wear leveling the
// paper's Cleaners already adopt, §5.1). Failing the greedy test it falls
// back to the replacement pair with the most invalid pages. It returns the
// owning VBA. Unlike the paper's cyclic scan (§5.1) and the page tables' scan,
// every scan starts at block 0: the scan position is saved and restored but
// never advanced, so ties go to the lowest-numbered block. Advancing it
// would move every NFTL golden result; see DESIGN.md §5.
func (d *Driver) pickVictim() (int, bool) {
	best, bestErases := -1, int(^uint(0)>>1)
	fallback, fallbackInvalid := -1, 0
	for i := 0; i < d.nblocks; i++ {
		b := d.ScanPos + i
		if b >= d.nblocks {
			b -= d.nblocks
		}
		if d.State[b] != roleReplacement {
			continue
		}
		vba := int(d.owner[b])
		valid, written := d.validPages(vba)
		invalid := written - valid
		if invalid > valid {
			ec := d.dev.EraseCount(b)
			if pb := d.primary[vba]; pb != noBlock {
				ec += d.dev.EraseCount(int(pb))
			}
			if ec < bestErases {
				best, bestErases = vba, ec
			}
			continue
		}
		if invalid > fallbackInvalid {
			fallback, fallbackInvalid = vba, invalid
		}
	}
	if best >= 0 {
		return best, true
	}
	if fallback >= 0 {
		return fallback, true
	}
	return 0, false
}

// merge folds the newest copy of every offset of the VBA into a fresh
// primary block, then erases and frees the old primary and replacement
// blocks. With no replacement block this is a fold: the primary's live
// pages move to a new block (this is how static wear leveling relocates
// cold data under NFTL).
func (d *Driver) merge(vba int) error {
	oldP := d.primary[vba]
	oldR := d.replacement[vba]
	if oldP == noBlock && oldR == noBlock {
		return nil
	}
	victim := int(oldP)
	if oldP == noBlock {
		victim = int(oldR)
	}
	sp := d.Tracer.Begin(obs.SpanGCMerge, victim, int64(vba))
	defer d.Tracer.End(sp)
	d.counters.Merges++
	np := noBlock
	for attempt := 0; ; attempt++ {
		b, err := d.take(rolePrimary, vba)
		if err != nil {
			return err
		}
		ok, err := d.copyInto(vba, b)
		if err != nil {
			return err
		}
		if ok {
			np = b
			break
		}
		// The new primary rejected a program even after retries (a grown-bad
		// block): erase or retire it and restart on a fresh block. The
		// sources are untouched, so no data is at risk.
		if err := d.Erase(b); err != nil {
			return err
		}
		if attempt >= 3 {
			return fmt.Errorf("nftl: merge of virtual block %d kept failing: %w", vba, nand.ErrInjected)
		}
	}
	// Commit the new primary before erasing the sources.
	d.primary[vba] = int32(np)
	d.replacement[vba] = noBlock
	if oldP != noBlock {
		if err := d.Erase(int(oldP)); err != nil {
			return err
		}
	}
	if oldR != noBlock {
		if err := d.Erase(int(oldR)); err != nil {
			return err
		}
	}
	return nil
}

// copyInto copies the newest copy of every offset of the VBA into block np
// at matching offsets. It reports ok=false when a program into np failed
// even after retries — the caller then restarts the merge on another block.
func (d *Driver) copyInto(vba, np int) (bool, error) {
	copied := 0
	cp := d.Tracer.Begin(obs.SpanLiveCopy, np, 0)
	// The span must close on the bail-out paths too: the caller restarts the
	// merge, and the retry's spans would otherwise nest under this orphan.
	defer func() { d.Tracer.EndPages(cp, copied) }()
	for off := 0; off < d.ppb; off++ {
		src := d.findLatest(vba, off)
		if src < 0 {
			continue
		}
		// Under ECC the read scrubs while merging: rot on the source page
		// is repaired before the data moves to the new primary.
		if _, err := d.Read(src, d.Buf); err != nil {
			return false, err
		}
		if err := d.programRetry(np*d.ppb+off, vba*d.ppb+off, d.Buf); err != nil {
			if errors.Is(err, nand.ErrInjected) {
				return false, nil
			}
			return false, err
		}
		d.counters.LiveCopies++
		copied++
		if d.Forced() {
			d.counters.ForcedCopies++
		}
	}
	if copied > 0 {
		d.Emit(obs.EvPagesCopied, np, copied)
	}
	return true, nil
}

// settle drops an erased or retired block's owner (gc.Config.Settle); the
// role itself is the pool's to change.
func (d *Driver) settle(b int, erased bool) {
	d.owner[b] = noBlock
	if erased {
		d.replWrites[b] = 0
	}
}

// reclaim recycles one block of a forced set (gc.Config.Reclaim): primary
// blocks are folded into fresh blocks, replacement blocks are merged with
// their primaries, and free blocks are erased in place.
func (d *Driver) reclaim(b int) error {
	switch d.State[b] {
	case roleFree:
		return d.Erase(b)
	case rolePrimary, roleReplacement:
		// Merging the owner frees this block (it may also free its
		// partner, which could be a later block of the same set — that one
		// will then take the free path).
		return d.merge(int(d.owner[b]))
	}
	return nil
}
