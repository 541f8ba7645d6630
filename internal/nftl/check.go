package nftl

import "fmt"

// CheckConsistency cross-checks the block-mapping state against the device
// for the observability layer's invariant checker. O(pages); meant for test
// and debugging checkpoints.
//
// Verified invariants:
//   - primary/replacement tables and the role/owner arrays agree in both
//     directions (each VBA's blocks claim it back; each claimed block is
//     listed by its owner);
//   - free blocks are fully erased on the chip;
//   - replacement-block slots below the write cursor are programmed unless
//     burnt (deadOffset), slots at or past it are erased, and recorded
//     offsets are in range;
//   - every mapped logical page resolves to a programmed physical page;
//   - the free-block count equals the number of free-role blocks.
func (d *Driver) CheckConsistency() error {
	for vba := range d.primary {
		if pb := d.primary[vba]; pb != noBlock {
			if d.State[pb] != rolePrimary || d.owner[pb] != int32(vba) {
				return fmt.Errorf("nftl: vba %d primary %d has role %d owner %d", vba, pb, d.State[pb], d.owner[pb])
			}
		}
		if rb := d.replacement[vba]; rb != noBlock {
			if d.State[rb] != roleReplacement || d.owner[rb] != int32(vba) {
				return fmt.Errorf("nftl: vba %d replacement %d has role %d owner %d", vba, rb, d.State[rb], d.owner[rb])
			}
		}
	}
	for b := 0; b < d.nblocks; b++ {
		switch d.State[b] {
		case roleFree:
			if d.owner[b] != noBlock {
				return fmt.Errorf("nftl: free block %d owned by vba %d", b, d.owner[b])
			}
			for p := 0; p < d.ppb; p++ {
				if d.dev.IsPageProgrammed(b*d.ppb + p) {
					return fmt.Errorf("nftl: free block %d has programmed page %d", b, p)
				}
			}
		case rolePrimary:
			vba := d.owner[b]
			if vba == noBlock || int(vba) >= len(d.primary) || d.primary[vba] != int32(b) {
				return fmt.Errorf("nftl: primary block %d not claimed by owner %d", b, vba)
			}
		case roleReplacement:
			vba := d.owner[b]
			if vba == noBlock || int(vba) >= len(d.replacement) || d.replacement[vba] != int32(b) {
				return fmt.Errorf("nftl: replacement block %d not claimed by owner %d", b, vba)
			}
			n := int(d.replWrites[b])
			if n < 0 || n > d.ppb {
				return fmt.Errorf("nftl: replacement block %d write cursor %d out of range", b, n)
			}
			for i := 0; i < d.ppb; i++ {
				ppn := b*d.ppb + i
				prog := d.dev.IsPageProgrammed(ppn)
				switch {
				case i >= n && prog:
					return fmt.Errorf("nftl: replacement block %d page %d programmed past cursor %d", b, i, n)
				case i < n && d.offsets[ppn] != deadOffset:
					if !prog {
						return fmt.Errorf("nftl: replacement block %d slot %d recorded but unprogrammed", b, i)
					}
					if int(d.offsets[ppn]) >= d.ppb {
						return fmt.Errorf("nftl: replacement block %d slot %d offset %d out of range", b, i, d.offsets[ppn])
					}
				}
			}
		}
	}
	if err := d.CheckFree(); err != nil {
		return err
	}
	for vba := range d.primary {
		for off := 0; off < d.ppb; off++ {
			if ppn := d.findLatest(vba, off); ppn >= 0 && !d.dev.IsPageProgrammed(ppn) {
				return fmt.Errorf("nftl: lpn %d resolves to unprogrammed page %d", vba*d.ppb+off, ppn)
			}
		}
	}
	return nil
}
