package gc

import (
	"errors"
	"fmt"

	"flashswl/internal/nand"
	"flashswl/internal/obs"
	"flashswl/internal/wire"
)

// NoPage marks a reverse-map slot whose physical page holds no valid data
// (and, in the drivers' forward tables, a logical page mapped nowhere).
const NoPage = -1

// PageTables is the Allocator and Cleaner of a page-mapping driver (ftl,
// dftl): who owns each physical page, how full each block is, where the next
// page is written, which block is recycled next and how its live pages
// leave. The driver keeps the forward mapping; when a recycle moves a page,
// its Relocate function copies the data and records the new address there.
type PageTables struct {
	Cleaner

	Rmap    []int32 // ppn → owner, NoPage when the page holds no valid data
	Valid   []int32 // per block: valid pages
	Written []int32 // per block: programmed pages

	// Write frontiers, -1 when none: [0] takes host writes, [1] relocated
	// and cold data under Config.Split. With Config.Frontiers 1 the state
	// record has no [1] either.
	active   [2]int
	ppb      int
	relocate func(src int, owner int32) (dst int, err error)
}

// Init builds the tables over an erased device. cfg's four functions are the
// tables' own and are set here. relocate moves one live page of a block
// being recycled: it reads the page at src, writes it through
// AllocProgram(…, true), points the owner's forward mapping at the copy and
// returns where that is.
func (t *PageTables) Init(cfg Config, relocate func(src int, owner int32) (int, error)) error {
	cfg.Victim, cfg.Recycle, cfg.Reclaim, cfg.Settle = t.greedyVictim, t.recycle, t.reclaim, t.settle
	c, err := New(cfg)
	if err != nil {
		return err
	}
	t.Cleaner = c
	t.ppb = cfg.Dev.Info().Geometry.PagesPerBlock
	t.Rmap = make([]int32, t.nblocks*t.ppb)
	for i := range t.Rmap {
		t.Rmap[i] = NoPage
	}
	t.Valid = make([]int32, t.nblocks)
	t.Written = make([]int32, t.nblocks)
	t.active = [2]int{-1, -1}
	t.relocate = relocate
	return nil
}

// Claim records that the page at ppn now holds owner's valid data.
func (t *PageTables) Claim(ppn int, owner int32) {
	t.Rmap[ppn] = owner
	t.Valid[ppn/t.ppb]++
}

// Invalidate drops the claim on the page at ppn: garbage collection
// reclaims it without copying.
func (t *PageTables) Invalidate(ppn int) {
	t.Rmap[ppn] = NoPage
	t.Valid[ppn/t.ppb]--
}

// maxProgramRetries bounds how many fresh pages a single logical write may
// burn before the failure is surfaced; each retry lands in a different
// block, so the bound is only reached under pathological fault schedules.
const maxProgramRetries = 8

// AllocProgram allocates a page on the host frontier (or, with reloc, the
// relocation frontier) and programs it, rerouting to a fresh page when the
// program is rejected with an injected fault. The failed page stays
// allocated but dead — garbage collection reclaims it with the rest of its
// block — and the frontier is closed over the failed block first, so the
// retry lands in a different block (a grown-bad active block cannot absorb
// every attempt).
func (t *PageTables) AllocProgram(owner uint32, data []byte, reloc bool) (int, error) {
	for attempt := 0; ; attempt++ {
		ppn, err := t.allocPage(reloc)
		if err != nil {
			return 0, err
		}
		err = t.Program(ppn, owner, data)
		if err == nil {
			return ppn, nil
		}
		if !errors.Is(err, nand.ErrInjected) || attempt >= maxProgramRetries {
			return 0, err
		}
		t.cfg.Stats.ProgramRetries++
		t.closeFrontierOver(ppn / t.ppb)
	}
}

// allocPage returns the next free physical page on the requested frontier,
// opening a new active block when needed.
//
//lint:hotpath every page allocation of the page-mapping drivers
func (t *PageTables) allocPage(reloc bool) (int, error) {
	active := &t.active[0]
	if reloc && t.cfg.Split {
		active = &t.active[1]
	}
	if *active >= 0 && int(t.Written[*active]) >= t.ppb {
		t.State[*active] = BlockInUse
		*active = -1
	}
	if *active < 0 {
		b, err := t.Take(BlockActive)
		if err != nil {
			return 0, err
		}
		*active = b
	}
	b := *active
	ppn := b*t.ppb + int(t.Written[b])
	t.Written[b]++
	return ppn, nil
}

// closeFrontierOver retires block b as a write frontier so the next
// allocation opens a different block.
func (t *PageTables) closeFrontierOver(b int) {
	for i := range t.active {
		if t.active[i] == b {
			t.active[i] = -1
			t.State[b] = BlockInUse
		}
	}
}

// greedyVictim returns the next recycling candidate (paper §5.1). Erasing a
// block costs one unit per valid page (they must be copied) and benefits one
// unit per invalid page; blocks are scanned cyclically from where the
// previous scan stopped, and candidates are in-use blocks whose invalid
// pages outnumber their valid ones. Among the candidates the one with the
// smallest erase count wins — this is the dynamic wear leveling the paper
// notes is "already adopted in the Cleaner": recycling lightly-worn blocks
// first keeps the actively-recycled pool even. When no block passes the
// greedy test it falls back to the in-use block with the most invalid pages,
// so collection always makes progress while any reclaimable page exists.
//
//lint:hotpath one linear scan per garbage collection
func (t *PageTables) greedyVictim() (int, bool) {
	best, bestErases := -1, int(^uint(0)>>1)
	fallback, fallbackInvalid := -1, 0
	for i := 0; i < t.nblocks; i++ {
		b := t.ScanPos + i
		if b >= t.nblocks {
			b -= t.nblocks
		}
		if t.State[b] != BlockInUse {
			continue
		}
		invalid := int(t.Written[b]) - int(t.Valid[b])
		if invalid > int(t.Valid[b]) {
			if ec := t.cfg.Dev.EraseCount(b); ec < bestErases {
				best, bestErases = b, ec
			}
			continue
		}
		if invalid > fallbackInvalid {
			fallback, fallbackInvalid = b, invalid
		}
	}
	if best < 0 {
		best = fallback
	}
	if best < 0 {
		return 0, false
	}
	t.ScanPos = (best + 1) % t.nblocks
	return best, true
}

// recycle moves every valid page of the block into the allocation stream
// and erases the block, returning it to the free pool. The caller must not
// pass an active block.
func (t *PageTables) recycle(b int) error {
	if s := t.State[b]; s == BlockActive || s == BlockReserved {
		return fmt.Errorf("%s: recycle of block %d in state %d", t.cfg.Name, b, s)
	}
	sp := t.Tracer.Begin(obs.SpanGCMerge, b, 0)
	defer t.Tracer.End(sp)
	copied := 0
	cp := t.Tracer.Begin(obs.SpanLiveCopy, b, 0)
	for p := 0; p < int(t.Written[b]); p++ {
		src := b*t.ppb + p
		owner := t.Rmap[src]
		if owner == NoPage {
			continue
		}
		dst, err := t.relocate(src, owner)
		if err != nil {
			return err
		}
		// Move the claim: the source page is dying with its block.
		t.Claim(dst, owner)
		t.Invalidate(src)
		t.cfg.Stats.LiveCopies++
		copied++
		if t.inForced {
			t.cfg.Stats.ForcedCopies++
		}
	}
	t.Tracer.EndPages(cp, copied)
	if copied > 0 {
		t.Emit(obs.EvPagesCopied, b, copied)
	}
	return t.Erase(b)
}

// settle resets an erased block's page counters (Config.Settle); a retired
// block keeps its stale ones.
func (t *PageTables) settle(b int, erased bool) {
	if erased {
		t.Written[b] = 0
		t.Valid[b] = 0
	}
}

// reclaim recycles one block of a forced set (Config.Reclaim), closing the
// write frontier over it first when it is an active block.
func (t *PageTables) reclaim(b int) error {
	switch t.State[b] {
	case BlockReserved:
		return nil
	case BlockFree:
		// Recycling a free block is a bare erase; it still refreshes the
		// block's BET flag so the scan can make progress.
		return t.Erase(b)
	case BlockActive:
		t.closeFrontierOver(b)
	}
	return t.recycle(b)
}

// CheckBlocks verifies the block tables against the device (their share of
// a driver's CheckConsistency): per block, the valid-page counter equals the
// number of live reverse mappings, the written-page counter bounds it, and
// no page at or past the write frontier is programmed on the chip; and the
// free-block count equals the number of blocks in the free state.
func (t *PageTables) CheckBlocks() error {
	name := t.cfg.Name
	for b, s := range t.State {
		if s == BlockReserved {
			continue // retired blocks keep stale per-block counters
		}
		liveHere := int32(0)
		for p := 0; p < t.ppb; p++ {
			ppn := b*t.ppb + p
			if t.Rmap[ppn] != NoPage {
				liveHere++
			}
			if p >= int(t.Written[b]) && t.cfg.Dev.IsPageProgrammed(ppn) {
				return fmt.Errorf("%s: block %d page %d programmed past write frontier %d", name, b, p, t.Written[b])
			}
		}
		if liveHere != t.Valid[b] {
			return fmt.Errorf("%s: block %d valid counter %d, rmap says %d", name, b, t.Valid[b], liveHere)
		}
		if t.Valid[b] > t.Written[b] || t.Written[b] > int32(t.ppb) {
			return fmt.Errorf("%s: block %d counters valid=%d written=%d out of order", name, b, t.Valid[b], t.Written[b])
		}
	}
	return t.CheckFree()
}

// SaveBlocks appends the tables — reverse map, block counters and states,
// frontiers, free pool, scan position, spare sequence — to a driver's state
// record.
func (t *PageTables) SaveBlocks(w *wire.Writer) {
	w.I32s(t.Rmap)
	w.I32s(t.Valid)
	w.I32s(t.Written)
	t.SaveStates(w)
	for _, a := range t.active[:t.cfg.Frontiers] {
		w.I32(int32(a))
	}
	t.SavePool(w)
	w.U32(t.Seq)
}

// BlocksImage is the decoded tables section of a state record, not yet
// checked or installed. Rmap is exposed for the driver to validate the
// owners, which only it can read.
type BlocksImage struct {
	Rmap           []int32
	valid, written []int32
	states         []byte
	active         [2]int
	pool           PoolImage
	seq            uint32
}

// DecodeBlocks reads what SaveBlocks wrote.
func (t *PageTables) DecodeBlocks(r *wire.Reader) BlocksImage {
	img := BlocksImage{Rmap: r.I32s(), valid: r.I32s(), written: r.I32s(), states: r.Blob(), active: [2]int{-1, -1}}
	for i := range img.active[:t.cfg.Frontiers] {
		img.active[i] = int(r.I32())
	}
	img.pool = DecodePool(r)
	img.seq = r.U32()
	return img
}

// InstallBlocks validates a decoded tables section against the device shape
// and only then replaces the tables with it.
func (t *PageTables) InstallBlocks(img BlocksImage) error {
	if len(img.Rmap) != len(t.Rmap) || len(img.valid) != t.nblocks || len(img.written) != t.nblocks {
		return fmt.Errorf("%s: corrupt state: table sizes do not match shape", t.cfg.Name)
	}
	for _, a := range img.active {
		if a < -1 || a >= t.nblocks {
			return fmt.Errorf("%s: corrupt state: active block %d", t.cfg.Name, a)
		}
	}
	if err := t.InstallPool(img.states, img.pool); err != nil {
		return err
	}
	t.Rmap, t.Valid, t.Written, t.active, t.Seq = img.Rmap, img.valid, img.written, img.active, img.seq
	return nil
}
