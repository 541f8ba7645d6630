package ftl

import (
	"fmt"

	"flashswl/internal/obs"
)

// The Cleaner: greedy garbage collection with a cyclic scan (paper §5.1),
// triggered when free blocks fall to the configured fraction of capacity.
// The watermark loop, the victim scan, the erase policy, and EraseBlockSet
// are the shared skeleton (internal/gc); this file is the FTL's half — how
// live pages leave a block and what an erase does to the block tables.

// recycle moves every valid page of the block into the allocation stream
// and erases the block, returning it to the free pool. The caller must not
// pass the active block.
func (d *Driver) recycle(b int) error {
	if d.state[b] == blockActive || d.state[b] == blockReserved {
		return fmt.Errorf("ftl: recycle of block %d in state %d", b, d.state[b])
	}
	sp := d.Tracer.Begin(obs.SpanGCMerge, b, 0)
	defer d.Tracer.End(sp)
	if d.copyBuf == nil {
		d.copyBuf = make([]byte, d.dev.Info().Geometry.PageSize)
	}
	copied := 0
	cp := d.Tracer.Begin(obs.SpanLiveCopy, b, 0)
	for p := 0; p < int(d.written[b]); p++ {
		ppn := b*d.ppb + p
		lpn := d.rmap[ppn]
		if lpn == invalidPPN {
			continue
		}
		if d.cfg.ECC {
			// Scrub while copying: bit rot accumulated on the source page
			// is repaired before the data moves.
			if err := d.readCorrected(ppn, d.copyBuf); err != nil {
				return err
			}
		} else if _, err := d.dev.ReadPage(ppn, d.copyBuf, nil); err != nil {
			return err
		}
		dst, err := d.allocProgram(int(lpn), d.copyBuf, true)
		if err != nil {
			return err
		}
		// Move the mapping: the source page is dying with its block.
		d.mapTable[lpn] = int32(dst)
		d.rmap[dst] = lpn
		d.valid[dst/d.ppb]++
		d.rmap[ppn] = invalidPPN
		d.valid[b]--
		d.counters.LiveCopies++
		copied++
		if d.Forced() {
			d.counters.ForcedCopies++
		}
	}
	d.Tracer.EndPages(cp, copied)
	if copied > 0 {
		d.Emit(obs.EvPagesCopied, b, copied)
	}
	return d.Erase(b)
}

// settle records an erase outcome for the shared cleaner (gc.Config.Settle):
// the block rejoins the free pool or, when the erase failed for good, is
// retired.
func (d *Driver) settle(b int, erased bool) (wasFree bool) {
	wasFree = d.state[b] == blockFree
	if !erased {
		d.state[b] = blockReserved
		return wasFree
	}
	d.written[b] = 0
	d.valid[b] = 0
	d.state[b] = blockFree
	if !wasFree {
		d.freeQueue = append(d.freeQueue, int32(b))
	}
	return wasFree
}

// reclaim recycles one block of a forced set (gc.Config.Reclaim), closing
// the write frontier over it first when it is an active block.
func (d *Driver) reclaim(b int) error {
	switch d.state[b] {
	case blockReserved:
		return nil
	case blockFree:
		// Recycling a free block is a bare erase; it still refreshes the
		// block's BET flag so the scan can make progress.
		return d.Erase(b)
	case blockActive:
		d.closeFrontierOver(b)
	}
	return d.recycle(b)
}
