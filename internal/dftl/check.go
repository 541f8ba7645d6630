package dftl

import "fmt"

// CheckConsistency cross-checks the demand-paged mapping state against the
// device for the observability layer's invariant checker. The shadow entry
// slices are authoritative (cached translation pages alias them), so the
// check covers cached and flushed mappings alike. O(pages).
//
// Verified invariants:
//   - every GTD entry points at a programmed page whose reverse mapping
//     carries the matching translation-page tag;
//   - every mapping entry points at a programmed page that claims exactly
//     that logical page, and every reverse-mapped page is claimed back by
//     its owner (data or translation) — mapping uniqueness both ways;
//   - per block, the valid counter matches the reverse map, the written
//     counter bounds it, and nothing past the write frontier is programmed;
//   - the free-block count equals the number of free-state blocks.
func (d *Driver) CheckConsistency() error {
	for t, ppn := range d.gtd {
		if ppn == invalidPPN {
			continue
		}
		if int(ppn) < 0 || int(ppn) >= len(d.rmap) {
			return fmt.Errorf("dftl: gtd[%d] = %d out of range", t, ppn)
		}
		if d.rmap[ppn] != tTag|int32(t) {
			return fmt.Errorf("dftl: gtd[%d] = %d, but rmap says owner %d", t, ppn, d.rmap[ppn])
		}
		if !d.dev.IsPageProgrammed(int(ppn)) {
			return fmt.Errorf("dftl: gtd[%d] points at unprogrammed page %d", t, ppn)
		}
	}
	mapped := 0
	for t, entries := range d.shadow {
		if entries == nil {
			continue
		}
		for off, ppn := range entries {
			if ppn == invalidPPN {
				continue
			}
			mapped++
			lpn := t*d.perT + off
			if int(ppn) < 0 || int(ppn) >= len(d.rmap) {
				return fmt.Errorf("dftl: lpn %d maps to out-of-range ppn %d", lpn, ppn)
			}
			if d.rmap[ppn] != int32(lpn) {
				return fmt.Errorf("dftl: lpn %d maps to ppn %d, but rmap says owner %d", lpn, ppn, d.rmap[ppn])
			}
			if !d.dev.IsPageProgrammed(int(ppn)) {
				return fmt.Errorf("dftl: lpn %d maps to unprogrammed ppn %d", lpn, ppn)
			}
		}
	}
	live := 0
	for ppn, owner := range d.rmap {
		if owner == invalidPPN {
			continue
		}
		live++
		if owner&tTag != 0 {
			t := int(owner &^ tTag)
			if t >= d.ntpages || d.gtd[t] != int32(ppn) {
				return fmt.Errorf("dftl: ppn %d claims tpage %d, gtd disagrees", ppn, t)
			}
			continue
		}
		lpn := int(owner)
		if lpn < 0 || lpn >= d.cfg.LogicalPages {
			return fmt.Errorf("dftl: ppn %d claims out-of-range lpn %d", ppn, lpn)
		}
		entries := d.shadow[lpn/d.perT]
		if entries == nil || entries[lpn%d.perT] != int32(ppn) {
			return fmt.Errorf("dftl: ppn %d claims lpn %d, mapping disagrees", ppn, lpn)
		}
	}
	flushed := 0
	for _, ppn := range d.gtd {
		if ppn != invalidPPN {
			flushed++
		}
	}
	if mapped+flushed != live {
		return fmt.Errorf("dftl: %d mapped + %d translation pages, but %d live physical pages", mapped, flushed, live)
	}
	free := 0
	for b := 0; b < d.nblocks; b++ {
		if d.state[b] == blockFree {
			free++
		}
		if d.state[b] == blockReserved {
			continue // retired blocks keep stale per-block counters
		}
		liveHere := int32(0)
		for p := 0; p < d.ppb; p++ {
			ppn := b*d.ppb + p
			if d.rmap[ppn] != invalidPPN {
				liveHere++
			}
			if p >= int(d.written[b]) && d.dev.IsPageProgrammed(ppn) {
				return fmt.Errorf("dftl: block %d page %d programmed past write frontier %d", b, p, d.written[b])
			}
		}
		if liveHere != d.valid[b] {
			return fmt.Errorf("dftl: block %d valid counter %d, rmap says %d", b, d.valid[b], liveHere)
		}
		if d.valid[b] > d.written[b] || d.written[b] > int32(d.ppb) {
			return fmt.Errorf("dftl: block %d counters valid=%d written=%d out of order", b, d.valid[b], d.written[b])
		}
	}
	if free != d.Free {
		return fmt.Errorf("dftl: free counter %d, state array says %d", d.Free, free)
	}
	return nil
}
