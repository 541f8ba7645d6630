package dftl

import (
	"fmt"

	"flashswl/internal/obs"
)

// The Cleaner is the shared skeleton (internal/gc) with the ftl package's
// greedy cost-benefit victim scan, and one extra case in the copy loop: a
// recycled block may hold live translation pages, which are relocated like
// data but update the Global Translation Directory instead of a mapping
// entry.

// recycle relocates every live page of the block — data pages via their
// translation pages, translation pages via the GTD — then erases it.
func (d *Driver) recycle(b int) error {
	if d.state[b] == blockActive || d.state[b] == blockReserved {
		return fmt.Errorf("dftl: recycle of block %d in state %d", b, d.state[b])
	}
	sp := d.Tracer.Begin(obs.SpanGCMerge, b, 0)
	defer d.Tracer.End(sp)
	copied := 0
	cp := d.Tracer.Begin(obs.SpanLiveCopy, b, 0)
	for p := 0; p < int(d.written[b]); p++ {
		ppn := b*d.ppb + p
		owner := d.rmap[ppn]
		if owner == invalidPPN {
			continue
		}
		if owner&tTag != 0 {
			// Live translation page: move it and repoint the GTD. Its
			// payload is shadowed in RAM, so the flash read is counted
			// without copying bytes.
			if _, err := d.dev.ReadPage(ppn, nil, nil); err != nil {
				return err
			}
			t := int(owner &^ tTag)
			dst, err := d.allocProgram(uint32(tTag)|uint32(t), nil)
			if err != nil {
				return err
			}
			d.gtd[t] = int32(dst)
			d.rmap[dst] = owner
			d.valid[dst/d.ppb]++
			d.rmap[ppn] = invalidPPN
			d.valid[b]--
			d.counters.TPageCopies++
			copied++
			if d.Forced() {
				d.counters.ForcedCopies++
			}
			continue
		}
		// Live data page: move it (payload included, so stored data
		// survives GC) and repoint its mapping entry, which needs the
		// translation page in cache (and dirties it).
		if d.copyBuf == nil {
			d.copyBuf = make([]byte, d.pageSize)
		}
		if _, err := d.dev.ReadPage(ppn, d.copyBuf, nil); err != nil {
			return err
		}
		lpn := int(owner)
		tp, err := d.loadTPage(lpn / d.perT)
		if err != nil {
			return err
		}
		dst, err := d.allocProgram(uint32(lpn), d.copyBuf)
		if err != nil {
			return err
		}
		tp.entries[lpn%d.perT] = int32(dst)
		tp.dirty = true
		d.rmap[dst] = owner
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
		d.freeQ = append(d.freeQ, int32(b))
	}
	return wasFree
}

// reclaim recycles one block of a forced set (gc.Config.Reclaim), closing
// the write frontier first when it is the active block.
func (d *Driver) reclaim(b int) error {
	switch d.state[b] {
	case blockReserved:
		return nil
	case blockFree:
		return d.Erase(b)
	case blockActive:
		d.active = -1
		d.state[b] = blockInUse
	}
	return d.recycle(b)
}
