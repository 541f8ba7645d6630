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
		if int(ppn) < 0 || int(ppn) >= len(d.Rmap) {
			return fmt.Errorf("dftl: gtd[%d] = %d out of range", t, ppn)
		}
		if d.Rmap[ppn] != tTag|int32(t) {
			return fmt.Errorf("dftl: gtd[%d] = %d, but rmap says owner %d", t, ppn, d.Rmap[ppn])
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
			if int(ppn) < 0 || int(ppn) >= len(d.Rmap) {
				return fmt.Errorf("dftl: lpn %d maps to out-of-range ppn %d", lpn, ppn)
			}
			if d.Rmap[ppn] != int32(lpn) {
				return fmt.Errorf("dftl: lpn %d maps to ppn %d, but rmap says owner %d", lpn, ppn, d.Rmap[ppn])
			}
			if !d.dev.IsPageProgrammed(int(ppn)) {
				return fmt.Errorf("dftl: lpn %d maps to unprogrammed ppn %d", lpn, ppn)
			}
		}
	}
	live := 0
	for ppn, owner := range d.Rmap {
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
	return d.CheckBlocks()
}
