// Package nftl implements NFTL, the block-level Flash Translation Layer of
// Section 2.2 / Figure 2(b) of the paper. A logical page address is split
// into a virtual block address (VBA = LBA / pagesPerBlock) and a block
// offset; each VBA maps to a primary physical block whose pages are written
// in-place at their offset. Overwrites that cannot land in the primary block
// go sequentially into a per-VBA replacement block; when the replacement
// block fills, the valid pages of the pair are merged into a fresh primary
// block and both old blocks are erased.
//
// Like the FTL driver, the package exposes an erase-notification hook and
// EraseBlockSet for the SW Leveler, and nothing else. A Driver shares its
// chip's single-goroutine confinement, is deterministic given its operation
// sequence, and round-trips its mapping state through
// SaveState/RestoreState for checkpoint/resume.
package nftl

import (
	"errors"
	"fmt"

	"flashswl/internal/gc"
	"flashswl/internal/mtd"
	"flashswl/internal/nand"
	"flashswl/internal/obs"
)

// Sentinel errors.
var (
	// ErrBadLPN reports a logical page number outside the exported space.
	ErrBadLPN = errors.New("nftl: logical page out of range")
	// ErrNoSpace reports that no free block is available and nothing can
	// be merged to produce one.
	ErrNoSpace = errors.New("nftl: no reclaimable space")
)

// Config parameterizes a Driver.
type Config struct {
	// VirtualBlocks is the number of virtual (logical) blocks exported;
	// the logical space is VirtualBlocks × pagesPerBlock pages. Each VBA
	// can pin up to two physical blocks (primary + replacement), so the
	// value must leave slack. Defaults to 85% of available blocks.
	VirtualBlocks int
	// GCFreeFraction is the garbage-collection watermark as a fraction of
	// all blocks (paper: 0.2%). Defaults to 0.002.
	GCFreeFraction float64
	// NoSpare disables per-page SpareInfo writes (see ftl.Config.NoSpare).
	NoSpare bool
	// ECC protects full-page writes with the SmartMedia Hamming code and
	// corrects single-bit errors on full-page reads, exactly as in
	// ftl.Config.ECC. Merges scrub accumulated bit rot.
	ECC bool
	// ReadRefresh relocates a page whose read needed correction by
	// merging its virtual block (NFTL's unit of relocation). Requires ECC.
	ReadRefresh bool
	// Reserved lists physical blocks excluded from the pool.
	Reserved []int
}

// Counters mirrors ftl.Counters for the NFTL driver; GCRuns counts the
// merges forced by the free-space watermark.
type Counters struct {
	gc.Counters
	HostReads    int64
	HostWrites   int64
	Merges       int64 // all primary/replacement merges and folds
	ECCCorrected int64 // single-bit errors repaired on reads
	Refreshes    int64 // merges triggered by read refresh
}

// blockRole is what a physical block is doing, kept in the pool's per-block
// states: NFTL's two in-service roles take the pool's two in-service codes.
type blockRole = gc.BlockState

const (
	roleFree        = gc.BlockFree
	rolePrimary     = gc.BlockActive
	roleReplacement = gc.BlockInUse
	roleReserved    = gc.BlockReserved
)

const noBlock = -1

// deadOffset marks a replacement-block slot whose program failed (or, after
// a remount, a slot that was never programmed): the slot is burnt, holds no
// data, and counts as invalid for garbage collection. Block offsets are
// always < pagesPerBlock, so the sentinel can never collide with a real one.
const deadOffset = 0xFFFF

// Driver is the NFTL instance over one MTD device. Not safe for concurrent
// use.
type Driver struct {
	// The free pool with the per-block roles (State), the page programmer,
	// and the cleaner skeleton: watermark loop, erase policy, EraseBlockSet,
	// hooks.
	gc.Cleaner

	dev *mtd.Driver
	cfg Config

	ppb     int
	nblocks int

	primary     []int32  // vba → primary block
	replacement []int32  // vba → replacement block
	owner       []int32  // block → owning vba
	replWrites  []int32  // per block: pages written (meaningful for replacements)
	offsets     []uint16 // per physical page of a replacement block: block offset stored there

	counters   Counters
	offScratch []uint64
}

// New creates an NFTL driver over a device whose non-reserved blocks all
// start free.
func New(dev *mtd.Driver, cfg Config) (*Driver, error) {
	nblocks := dev.Blocks()
	ppb := dev.Info().Geometry.PagesPerBlock
	d := &Driver{dev: dev, ppb: ppb, nblocks: nblocks}
	var err error
	d.Cleaner, err = gc.New(gc.Config{
		Name: "nftl", Dev: dev, NoSpace: ErrNoSpace, Stats: &d.counters.Counters,
		Reserved: cfg.Reserved, GCFreeFraction: cfg.GCFreeFraction,
		NoSpare: cfg.NoSpare, ECC: cfg.ECC, Corrected: &d.counters.ECCCorrected,
		Victim: d.pickVictim, Recycle: d.merge, Reclaim: d.reclaim, Settle: d.settle,
	})
	if err != nil {
		return nil, err
	}
	available := d.Free
	if cfg.VirtualBlocks == 0 {
		cfg.VirtualBlocks = available * 85 / 100
		if max := available - gc.MinSlack; cfg.VirtualBlocks > max {
			cfg.VirtualBlocks = max
		}
	}
	if cfg.VirtualBlocks <= 0 {
		return nil, fmt.Errorf("nftl: virtual space %d blocks is empty", cfg.VirtualBlocks)
	}
	if cfg.VirtualBlocks > available-gc.MinSlack {
		return nil, fmt.Errorf("nftl: %d virtual blocks leave less than %d blocks of slack on %d available",
			cfg.VirtualBlocks, gc.MinSlack, available)
	}
	if cfg.ReadRefresh && !cfg.ECC {
		return nil, errors.New("nftl: read refresh requires ECC")
	}
	d.cfg = cfg
	d.primary = make([]int32, cfg.VirtualBlocks)
	d.replacement = make([]int32, cfg.VirtualBlocks)
	for i := range d.primary {
		d.primary[i] = noBlock
		d.replacement[i] = noBlock
	}
	d.owner = make([]int32, nblocks)
	for b := range d.owner {
		d.owner[b] = noBlock
	}
	d.replWrites = make([]int32, nblocks)
	d.offsets = make([]uint16, nblocks*ppb)
	d.offScratch = make([]uint64, (ppb+63)/64)
	return d, nil
}

// LogicalPages returns the exported logical space in pages.
func (d *Driver) LogicalPages() int { return len(d.primary) * d.ppb }

// Counters returns a snapshot of the activity counters.
func (d *Driver) Counters() Counters { return d.counters }

// Device returns the underlying MTD driver.
func (d *Driver) Device() *mtd.Driver { return d.dev }

// split converts a logical page number into (vba, offset).
func (d *Driver) split(lpn int) (int, int, error) {
	if lpn < 0 || lpn >= d.LogicalPages() {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadLPN, lpn)
	}
	return lpn / d.ppb, lpn % d.ppb, nil
}

// findLatest returns the physical page holding the newest copy of (vba,
// offset), or -1: the replacement block is searched backwards first (later
// writes supersede), then the primary block's in-place page.
func (d *Driver) findLatest(vba, off int) int {
	if rb := d.replacement[vba]; rb != noBlock {
		base := int(rb) * d.ppb
		for i := int(d.replWrites[rb]) - 1; i >= 0; i-- {
			if int(d.offsets[base+i]) == off {
				return base + i
			}
		}
	}
	if pb := d.primary[vba]; pb != noBlock {
		ppn := int(pb)*d.ppb + off
		if d.dev.IsPageProgrammed(ppn) {
			return ppn
		}
	}
	return -1
}

// IsMapped reports whether the logical page has valid data.
func (d *Driver) IsMapped(lpn int) bool {
	vba, off, err := d.split(lpn)
	if err != nil {
		return false
	}
	return d.findLatest(vba, off) >= 0
}

// ReadPage reads the newest copy of the logical page into buf. Unmapped
// pages fill buf with 0xFF and report ok=false.
func (d *Driver) ReadPage(lpn int, buf []byte) (ok bool, err error) {
	vba, off, err := d.split(lpn)
	if err != nil {
		return false, err
	}
	ppn := d.findLatest(vba, off)
	if ppn < 0 {
		gc.Blank(buf)
		return false, nil
	}
	d.counters.HostReads++
	corrected, err := d.Read(ppn, buf)
	if err != nil {
		return false, err
	}
	if corrected > 0 && d.cfg.ReadRefresh {
		// Relocate the whole virtual block — NFTL's unit of movement —
		// before more rot accumulates.
		if err := d.merge(vba); err != nil {
			return false, err
		}
		d.counters.Refreshes++
	}
	return true, nil
}

// WritePage writes data to the logical page: into the primary block's page
// at the matching offset when that page is still erased, otherwise appended
// to the VBA's replacement block. A replacement block that fills up is
// merged immediately.
func (d *Driver) WritePage(lpn int, data []byte) error {
	vba, off, err := d.split(lpn)
	if err != nil {
		return err
	}
	sp := d.Tracer.Begin(obs.SpanTranslate, -1, int64(lpn))
	defer d.Tracer.End(sp)
	if d.Free <= d.Watermark {
		if err := d.EnsureHeadroom(); err != nil {
			return err
		}
	}
	pb := d.primary[vba]
	if pb == noBlock {
		b, err := d.take(rolePrimary, vba)
		if err != nil {
			return err
		}
		d.primary[vba] = int32(b)
		pb = int32(b)
	}
	primPPN := int(pb)*d.ppb + off
	if !d.dev.IsPageProgrammed(primPPN) {
		err := d.programRetry(primPPN, lpn, data)
		if err == nil {
			d.counters.HostWrites++
			return nil
		}
		if !errors.Is(err, nand.ErrInjected) {
			return err
		}
		// The in-place page is unusable (grown-bad primary or a persistent
		// fault): route the write through the replacement path instead.
	}
	// A grown-bad replacement block can reject every slot; bound how many
	// replacement blocks one write may consume before giving up.
	for blocksTried := 0; blocksTried < 4; blocksTried++ {
		rb := d.replacement[vba]
		if rb == noBlock {
			b, err := d.take(roleReplacement, vba)
			if err != nil {
				return err
			}
			d.replacement[vba] = int32(b)
			rb = int32(b)
		}
		for int(d.replWrites[rb]) < d.ppb {
			ppn := int(rb)*d.ppb + int(d.replWrites[rb])
			err := d.programRetry(ppn, lpn, data)
			if err == nil {
				d.counters.HostWrites++
				d.offsets[ppn] = uint16(off)
				d.replWrites[rb]++
				if int(d.replWrites[rb]) == d.ppb {
					return d.merge(vba)
				}
				return nil
			}
			if !errors.Is(err, nand.ErrInjected) {
				return err
			}
			// Burn the failed slot and advance to the next one.
			d.offsets[ppn] = deadOffset
			d.replWrites[rb]++
		}
		// Every remaining slot failed: fold the pair (freeing or retiring
		// the bad replacement block) and try again with a fresh one.
		if err := d.merge(vba); err != nil {
			return err
		}
	}
	return fmt.Errorf("nftl: write of page %d kept failing: %w", lpn, nand.ErrInjected)
}

// programRetry programs one fixed physical page, retrying a couple of times
// on injected transient faults — a rejected program leaves the page erased,
// so the same page can be retried. A persistent failure (a grown-bad block)
// is returned for the caller to route around.
func (d *Driver) programRetry(ppn, lpn int, data []byte) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		err = d.Program(ppn, uint32(lpn), data)
		if err == nil || !errors.Is(err, nand.ErrInjected) {
			return err
		}
		if attempt < 2 {
			d.counters.ProgramRetries++
		}
	}
	return err
}

// take pops the head of the free queue (FIFO rotation through the pool —
// the Allocator's dynamic wear leveling, as in the FTL driver) into service
// for the VBA in role r.
func (d *Driver) take(r blockRole, vba int) (int, error) {
	b, err := d.Take(r)
	if err == nil {
		d.owner[b] = int32(vba)
		d.replWrites[b] = 0
	}
	return b, err
}
