// Package ftl implements FTL, the page-level Flash Translation Layer of
// Section 2.2 / Figure 2(a) of the paper: a fine-grained address translation
// table maps every logical page (LBA) to the physical page currently holding
// its data; updates go out-of-place to free pages, and a greedy Cleaner with
// a cyclic scan recycles blocks whose invalid pages outweigh their valid
// ones. Dynamic wear leveling is present as in the paper's Cleaners (§5.1):
// the Allocator rotates through the free pool FIFO, and the Cleaner prefers
// the candidate with the smallest erase count.
//
// The driver exposes the two integration points the SW Leveler needs and
// nothing else: an erase-notification hook and EraseBlockSet, which forces
// garbage collection over a chosen block set.
//
// A Driver shares its chip's single-goroutine confinement and is
// deterministic given its operation sequence; its complete mapping state
// round-trips through SaveState/RestoreState for checkpoint/resume.
package ftl

import (
	"errors"
	"fmt"

	"flashswl/internal/gc"
	"flashswl/internal/hotdata"
	"flashswl/internal/mtd"
	"flashswl/internal/obs"
)

// Sentinel errors.
var (
	// ErrBadLPN reports a logical page number outside the exported space.
	ErrBadLPN = errors.New("ftl: logical page out of range")
	// ErrNoSpace reports that garbage collection cannot reclaim anything:
	// the logical space is over-committed with live data.
	ErrNoSpace = errors.New("ftl: no reclaimable space")
)

// Config parameterizes a Driver.
type Config struct {
	// LogicalPages is the exported logical space in pages. It must leave
	// at least a few physical blocks of slack for out-place updates.
	// Defaults to 98% of the physical pages not reserved.
	LogicalPages int
	// GCFreeFraction is the garbage-collection trigger: the Cleaner runs
	// while free blocks are at or under this fraction of all blocks. The
	// paper uses 0.2% (0.002). Defaults to 0.002.
	GCFreeFraction float64
	// NoSpare disables writing a SpareInfo (logical address, sequence,
	// ECC) to each programmed page's out-of-band area. Spare writes are on
	// by default because Mount needs them to rebuild the translation
	// table; large pure-simulation runs may disable them for speed.
	NoSpare bool
	// DualFrontier appends garbage-collection copies to a separate active
	// block instead of the host-write block. The paper's FTL uses a
	// single frontier — relocated cold pages interleave with fresh hot
	// data, and that mixing is precisely why its Figure 5(a) improves
	// with large k ("better mixing of hot and non-hot data"). The dual
	// frontier keeps relocated cold data in its own blocks: cheaper
	// copying, but static wear leveling then only helps at k=0. Off by
	// default for paper fidelity; see the ablation benchmarks.
	DualFrontier bool
	// HotData, when set, classifies host writes on-line (the multi-hash
	// scheme the paper cites for dynamic wear leveling) and routes writes
	// of cold data to the relocation frontier, so hot and cold data stop
	// sharing blocks at allocation time. Implies the dual frontier.
	HotData *hotdata.Identifier
	// ECC protects full-page writes with the SmartMedia Hamming code (3
	// bytes per 256-byte chunk, appended to the spare area after the
	// SpareInfo): full-page reads correct single-bit errors transparently
	// and fail on double-bit errors. Requires spare room and data-bearing
	// writes; partial-page traffic is passed through unprotected.
	ECC bool
	// ReadRefresh makes a host read that needed ECC correction relocate
	// the page to a fresh location (write-back of the corrected data), so
	// read-disturb flips cannot accumulate into uncorrectable errors.
	// Requires ECC.
	ReadRefresh bool
	// Reserved lists physical blocks excluded from the pool, e.g. the
	// SW Leveler's snapshot blocks.
	Reserved []int
}

// Counters reports driver activity: the shared cleaner counters plus the
// host-side ones.
type Counters struct {
	gc.Counters
	HostReads    int64 // pages read for the host
	HostWrites   int64 // pages written for the host
	ECCCorrected int64 // single-bit errors repaired on reads
	Refreshes    int64 // pages relocated by read refresh
	Discards     int64 // logical pages dropped by TRIM
}

const invalidPPN = gc.NoPage

// Driver is the FTL instance over one MTD device. Not safe for concurrent
// use, like the layers below it.
type Driver struct {
	// The Allocator and Cleaner: free pool, page programmer, reverse map and
	// block counters, write frontiers (host writes and garbage-collection
	// copies share one unless Config.DualFrontier or HotData splits them),
	// watermark loop, erase policy, EraseBlockSet, hooks.
	gc.PageTables

	dev *mtd.Driver
	cfg Config

	ppb     int
	nblocks int

	mapTable []int32 // lpn → ppn
	counters Counters
}

// New creates an FTL driver on a device. The device's blocks (minus any
// reserved ones) all start free; use Mount to adopt a device with existing
// data.
func New(dev *mtd.Driver, cfg Config) (*Driver, error) {
	ppb := dev.Info().Geometry.PagesPerBlock
	d := &Driver{dev: dev, ppb: ppb, nblocks: dev.Blocks()}
	err := d.Init(gc.Config{
		Name: "ftl", Dev: dev, NoSpace: ErrNoSpace, Stats: &d.counters.Counters,
		Reserved: cfg.Reserved, GCFreeFraction: cfg.GCFreeFraction,
		NoSpare: cfg.NoSpare, ECC: cfg.ECC, Corrected: &d.counters.ECCCorrected,
		Frontiers: 2, Split: cfg.DualFrontier || cfg.HotData != nil,
	}, d.relocate)
	if err != nil {
		return nil, err
	}
	available := d.Free * ppb
	if cfg.LogicalPages == 0 {
		cfg.LogicalPages = available * 98 / 100
		if max := available - gc.MinSlack*ppb; cfg.LogicalPages > max {
			cfg.LogicalPages = max
		}
	}
	if cfg.LogicalPages <= 0 {
		return nil, fmt.Errorf("ftl: logical space %d pages is empty", cfg.LogicalPages)
	}
	if cfg.LogicalPages > available-gc.MinSlack*ppb {
		return nil, fmt.Errorf("ftl: logical space %d pages leaves less than %d blocks of slack on %d available pages",
			cfg.LogicalPages, gc.MinSlack, available)
	}
	if cfg.ReadRefresh && !cfg.ECC {
		return nil, errors.New("ftl: read refresh requires ECC")
	}
	d.cfg = cfg
	d.mapTable = make([]int32, cfg.LogicalPages)
	for i := range d.mapTable {
		d.mapTable[i] = invalidPPN
	}
	return d, nil
}

// LogicalPages returns the exported logical space in pages.
func (d *Driver) LogicalPages() int { return len(d.mapTable) }

// Counters returns a snapshot of the activity counters.
func (d *Driver) Counters() Counters { return d.counters }

// Device returns the underlying MTD driver.
func (d *Driver) Device() *mtd.Driver { return d.dev }

// IsMapped reports whether the logical page currently has valid data.
func (d *Driver) IsMapped(lpn int) bool {
	return lpn >= 0 && lpn < len(d.mapTable) && d.mapTable[lpn] != invalidPPN
}

// Discard drops the mapping of a logical page (TRIM): the physical copy
// becomes invalid immediately, so garbage collection reclaims it without
// copying. Discarding an unmapped page is a no-op.
func (d *Driver) Discard(lpn int) error {
	if lpn < 0 || lpn >= len(d.mapTable) {
		return fmt.Errorf("%w: %d", ErrBadLPN, lpn)
	}
	if old := d.mapTable[lpn]; old != invalidPPN {
		d.Invalidate(int(old))
		d.mapTable[lpn] = invalidPPN
		d.counters.Discards++
	}
	return nil
}

// ReadPage reads the logical page into buf (which may be nil for a pure
// simulation step). Reading an unmapped page fills buf with 0xFF and
// reports ok=false without touching the chip.
func (d *Driver) ReadPage(lpn int, buf []byte) (ok bool, err error) {
	if lpn < 0 || lpn >= len(d.mapTable) {
		return false, fmt.Errorf("%w: %d", ErrBadLPN, lpn)
	}
	ppn := d.mapTable[lpn]
	if ppn == invalidPPN {
		gc.Blank(buf)
		return false, nil
	}
	d.counters.HostReads++
	corrected, err := d.Read(int(ppn), buf)
	if err != nil {
		return false, err
	}
	if corrected > 0 && d.cfg.ReadRefresh {
		if err := d.refresh(lpn, buf); err != nil {
			return false, err
		}
	}
	return true, nil
}

// refresh writes the corrected page image to a fresh physical page (read
// refresh): the disturbed copy is invalidated before its bit rot can grow
// past the code's correction capability.
func (d *Driver) refresh(lpn int, data []byte) error {
	if err := d.EnsureHeadroom(); err != nil {
		return err
	}
	ppn, err := d.AllocProgram(uint32(lpn), data, true)
	if err != nil {
		return err
	}
	d.commitMapping(lpn, ppn)
	d.counters.Refreshes++
	return nil
}

// relocate moves one live page out of a block being recycled
// (gc.PageTables.Init): the copy goes to the relocation frontier and the
// flat table follows it. Under ECC the read scrubs while copying: bit rot
// accumulated on the source page is repaired before the data moves.
func (d *Driver) relocate(src int, lpn int32) (int, error) {
	if _, err := d.Read(src, d.Buf); err != nil {
		return 0, err
	}
	dst, err := d.AllocProgram(uint32(lpn), d.Buf, true)
	if err != nil {
		return 0, err
	}
	d.mapTable[lpn] = int32(dst)
	return dst, nil
}

// WritePage writes data (which may be nil in metadata-only simulations) to
// the logical page, allocating a free physical page and invalidating the
// previous copy.
func (d *Driver) WritePage(lpn int, data []byte) error {
	if lpn < 0 || lpn >= len(d.mapTable) {
		return fmt.Errorf("%w: %d", ErrBadLPN, lpn)
	}
	sp := d.Tracer.Begin(obs.SpanTranslate, -1, int64(lpn))
	defer d.Tracer.End(sp)
	if d.Free <= d.Watermark {
		if err := d.EnsureHeadroom(); err != nil {
			return err
		}
	}
	cold := false
	if d.cfg.HotData != nil {
		d.cfg.HotData.RecordWrite(uint32(lpn))
		cold = !d.cfg.HotData.IsHot(uint32(lpn))
	}
	ppn, err := d.AllocProgram(uint32(lpn), data, cold)
	if err != nil {
		return err
	}
	d.counters.HostWrites++
	d.commitMapping(lpn, ppn)
	return nil
}

// commitMapping points lpn at ppn and invalidates any previous copy.
func (d *Driver) commitMapping(lpn, ppn int) {
	if old := d.mapTable[lpn]; old != invalidPPN {
		d.Invalidate(int(old))
	}
	d.mapTable[lpn] = int32(ppn)
	d.Claim(ppn, int32(lpn))
}
