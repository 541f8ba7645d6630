package ftl

import "fmt"

// CheckConsistency cross-checks the driver's translation state against the
// device — the page-mapping layer's contribution to the observability
// layer's invariant checker. It is O(pages) and intended for test and
// debugging checkpoints, not the hot path.
//
// Verified invariants:
//   - every mapped logical page points at an in-range physical page whose
//     reverse mapping points back, and which the chip reports programmed;
//   - every reverse-mapped physical page is claimed by exactly the logical
//     page that maps to it (mapping uniqueness both ways);
//   - per block, the valid-page counter equals the number of live reverse
//     mappings, the written-page counter bounds it, and no page at or past
//     the write frontier is programmed on the chip;
//   - the free-block count equals the number of blocks in the free state.
func (d *Driver) CheckConsistency() error {
	mapped := 0
	for lpn, ppn := range d.mapTable {
		if ppn == invalidPPN {
			continue
		}
		mapped++
		if int(ppn) < 0 || int(ppn) >= len(d.Rmap) {
			return fmt.Errorf("ftl: lpn %d maps to out-of-range ppn %d", lpn, ppn)
		}
		if d.Rmap[ppn] != int32(lpn) {
			return fmt.Errorf("ftl: lpn %d maps to ppn %d, but rmap says lpn %d", lpn, ppn, d.Rmap[ppn])
		}
		if !d.dev.IsPageProgrammed(int(ppn)) {
			return fmt.Errorf("ftl: lpn %d maps to unprogrammed ppn %d", lpn, ppn)
		}
	}
	live := 0
	for ppn, lpn := range d.Rmap {
		if lpn == invalidPPN {
			continue
		}
		live++
		if int(lpn) < 0 || int(lpn) >= len(d.mapTable) {
			return fmt.Errorf("ftl: ppn %d claims out-of-range lpn %d", ppn, lpn)
		}
		if d.mapTable[lpn] != int32(ppn) {
			return fmt.Errorf("ftl: ppn %d claims lpn %d, which maps to ppn %d", ppn, lpn, d.mapTable[lpn])
		}
	}
	if mapped != live {
		return fmt.Errorf("ftl: %d mapped logical pages but %d live physical pages", mapped, live)
	}
	return d.CheckBlocks()
}
