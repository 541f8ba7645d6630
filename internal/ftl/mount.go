package ftl

import (
	"errors"

	"flashswl/internal/gc"
	"flashswl/internal/mtd"
	"flashswl/internal/nand"
)

// Mount adopts a device that already holds data, rebuilding the translation
// table from the spare areas written by a previous Driver instance (this is
// the standard FTL attach path; the driver must have been running with spare
// writes enabled). When several physical pages claim the same logical page,
// the highest write sequence number wins — older copies are invalid.
//
// Pages whose spare area does not decode are treated as invalid data of
// unknown origin: they occupy their block (it is not free) but map nowhere,
// so garbage collection reclaims them naturally.
func Mount(dev *mtd.Driver, cfg Config) (*Driver, error) {
	if cfg.NoSpare {
		return nil, errors.New("ftl: cannot mount without spare areas")
	}
	d, err := New(dev, cfg)
	if err != nil {
		return nil, err
	}
	seqOf := make([]uint32, len(d.mapTable))
	oob := make([]byte, dev.Info().Geometry.SpareSize)
	var maxSeq uint32
	for b := 0; b < d.nblocks; b++ {
		if d.State[b] == gc.BlockReserved {
			continue
		}
		occupied := false
		for p := 0; p < d.ppb; p++ {
			ppn := b*d.ppb + p
			if !dev.IsPageProgrammed(ppn) {
				continue
			}
			occupied = true
			d.Written[b] = int32(p + 1)
			if _, err := dev.ReadPage(ppn, nil, oob); err != nil {
				return nil, err
			}
			info, err := nand.DecodeSpare(oob)
			if err != nil {
				continue // unknown data: invalid, reclaimed by GC later
			}
			lpn := int(info.LBA)
			if lpn < 0 || lpn >= len(d.mapTable) {
				continue
			}
			if info.Seq > maxSeq {
				maxSeq = info.Seq
			}
			if old := d.mapTable[lpn]; old != invalidPPN {
				if info.Seq <= seqOf[lpn] {
					continue // stale copy
				}
				// Displace the older copy.
				d.Invalidate(int(old))
			}
			d.mapTable[lpn] = int32(ppn)
			d.Claim(ppn, int32(lpn))
			seqOf[lpn] = info.Seq
		}
		if occupied {
			d.Adopt(b, gc.BlockInUse)
		}
	}
	d.Seq = maxSeq
	return d, nil
}
