package nftl

import (
	"errors"
	"sort"

	"flashswl/internal/mtd"
	"flashswl/internal/nand"
)

// mountScan is what Mount learns about one physical block from its spares.
type mountScan struct {
	vba      int      // owning virtual block, -1 if none/unknown
	written  int      // programmed prefix length
	offsets  []uint16 // block offset stored at each programmed page
	minSeq   uint32   // oldest write sequence seen in the block
	inOrder  bool     // every decodable page's offset equals its position
	occupied bool     // any page programmed
}

// Mount adopts a device that already holds NFTL-managed data, rebuilding the
// virtual-block tables from the spare areas a previous Driver wrote.
//
// Classification works from the per-page logical addresses: every decodable
// page of a block belongs to one VBA (blocks are never shared). A block
// holding any page whose offset does not match its physical position must
// be a replacement block (replacement writes land sequentially, wherever
// the next slot is). When both blocks of a pair look primary-shaped — a
// replacement that happened to receive offsets in physical order — the
// write sequence numbers break the tie: the replacement was allocated
// strictly after the primary's first program, so the block holding the
// oldest write is the primary. Blocks with undecodable or foreign content
// are erased back into the free pool, and a replacement block found full
// (a crash interrupted its merge) is merged during mount.
func Mount(dev *mtd.Driver, cfg Config) (*Driver, error) {
	if cfg.NoSpare {
		return nil, errors.New("nftl: cannot mount without spare areas")
	}
	d, err := New(dev, cfg)
	if err != nil {
		return nil, err
	}

	oob := make([]byte, dev.Info().Geometry.SpareSize)
	scans := make([]mountScan, d.nblocks)
	var maxSeq uint32
	for b := 0; b < d.nblocks; b++ {
		s := &scans[b]
		s.vba = -1
		s.inOrder = true
		if d.State[b] == roleReserved {
			continue
		}
		for p := 0; p < d.ppb; p++ {
			ppn := b*d.ppb + p
			if !dev.IsPageProgrammed(ppn) {
				continue
			}
			s.occupied = true
			if _, err := dev.ReadPage(ppn, nil, oob); err != nil {
				return nil, err
			}
			info, err := nand.DecodeSpare(oob)
			if err != nil {
				s.vba = -2 // foreign data
				break
			}
			lpn := int(info.LBA)
			if lpn < 0 || lpn >= d.LogicalPages() {
				s.vba = -2
				break
			}
			vba, off := lpn/d.ppb, lpn%d.ppb
			switch s.vba {
			case -1:
				s.vba = vba
				s.minSeq = info.Seq
			case vba:
				if info.Seq < s.minSeq {
					s.minSeq = info.Seq
				}
			default:
				s.vba = -2 // mixed VBAs cannot come from this driver
			}
			if s.vba == -2 {
				break
			}
			if info.Seq > maxSeq {
				maxSeq = info.Seq
			}
			for len(s.offsets) < p {
				// A gap is a sparse primary page or a burnt replacement
				// slot; it must not masquerade as a real offset (0), else a
				// remounted dead slot would shadow the true offset-0 copy.
				s.offsets = append(s.offsets, deadOffset)
			}
			s.offsets = append(s.offsets, uint16(off))
			if off != p {
				s.inOrder = false
			}
			s.written = p + 1
		}
	}

	// Group claimants per VBA and assign roles.
	claim := map[int][]int{}
	for b := range scans {
		if scans[b].occupied && scans[b].vba >= 0 {
			claim[scans[b].vba] = append(claim[scans[b].vba], b)
		}
	}
	for vba, blocksOf := range claim {
		primary, replacement := pickPair(scans, blocksOf)
		if primary >= 0 {
			d.Adopt(primary, rolePrimary)
			d.owner[primary] = int32(vba)
			d.primary[vba] = int32(primary)
		}
		if replacement >= 0 {
			d.Adopt(replacement, roleReplacement)
			d.owner[replacement] = int32(vba)
			d.replacement[vba] = int32(replacement)
			d.replWrites[replacement] = int32(scans[replacement].written)
			base := replacement * d.ppb
			for i, off := range scans[replacement].offsets {
				d.offsets[base+i] = off
			}
		}
	}
	// Everything unclaimed stays in the free pool; occupied-but-unknown
	// blocks are erased first, as firmware does with unrecognizable data.
	// A block that will not erase — worn out, grown bad, or persistently
	// faulted — is retired rather than handed out still holding data.
	// Mount runs before SetObserver can be called (the driver does not exist
	// outside this function yet), so these cleanup erases cannot reach an
	// event sink; the post-mount CheckConsistency and counter recount cover
	// them instead.
	for b := 0; b < d.nblocks; b++ {
		if d.State[b] == roleFree && scans[b].occupied {
			if err := d.Erase(b); err != nil {
				return nil, err
			}
		}
	}
	// A crash can leave a replacement block full without its merge; redo it.
	for vba := range d.primary {
		if rb := d.replacement[vba]; rb != noBlock && int(d.replWrites[rb]) >= d.ppb {
			if err := d.merge(vba); err != nil {
				return nil, err
			}
		}
	}
	d.Seq = maxSeq
	return d, nil
}

// pickPair chooses (primary, replacement) among a VBA's claimant blocks,
// returning -1 for an absent slot; claimants assigned to neither slot stay
// unclaimed and are erased back into the free pool.
//
// A healthy driver keeps at most two blocks per VBA, so extra claimants can
// only be crash debris. Merge erases its source blocks strictly after the
// new primary is fully programmed, which gives the recovery rules:
//
//   - Three or more claimants: a merge was cut before either source was
//     erased. The newest block is the merge target — possibly torn — while
//     the sources still hold every live page, so the target is discarded
//     and the merge redone from the surviving pair.
//   - Two claimants with an in-order (primary-shaped) oldest: the normal
//     primary + replacement pair.
//   - Two claimants with an out-of-order oldest: the true primary was
//     already erased by a fold that was then cut. The newer block is kept
//     only if it is primary-shaped and covers every live offset of the
//     source (the fold completed); a torn fold target is discarded so the
//     surviving replacement stays readable.
func pickPair(scans []mountScan, blocks []int) (primary, replacement int) {
	if len(blocks) == 0 {
		return -1, -1
	}
	sorted := append([]int(nil), blocks...)
	sort.Slice(sorted, func(a, b int) bool { return scans[sorted[a]].minSeq < scans[sorted[b]].minSeq })
	if len(sorted) > 2 {
		sorted = sorted[:2] // drop the cut merge's possibly-torn target
	}
	oldest := sorted[0]
	if len(sorted) == 1 {
		if scans[oldest].inOrder {
			return oldest, -1
		}
		return -1, oldest // a replacement whose primary was erased mid-merge
	}
	newest := sorted[1]
	if scans[oldest].inOrder {
		return oldest, newest
	}
	if scans[newest].inOrder {
		if covers(scans[newest], scans[oldest]) {
			return newest, -1 // completed fold: the source is fully superseded
		}
		return -1, oldest // torn fold target: keep the source
	}
	// Two replacement-shaped blocks cannot come from this driver; keep the
	// one with the newest data.
	return -1, newest
}

// covers reports whether the candidate primary block holds a copy of every
// live offset of the replacement-shaped source block.
func covers(target, source mountScan) bool {
	have := make(map[uint16]bool, len(target.offsets))
	for _, off := range target.offsets {
		if off != deadOffset {
			have[off] = true
		}
	}
	for _, off := range source.offsets {
		if off != deadOffset && !have[off] {
			return false
		}
	}
	return true
}
