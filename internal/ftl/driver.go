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

	"flashswl/internal/ecc"
	"flashswl/internal/gc"
	"flashswl/internal/hotdata"
	"flashswl/internal/mtd"
	"flashswl/internal/nand"
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
	// MinFreeBlocks is a floor under the watermark so small devices keep
	// enough headroom for recycling. Defaults to 3.
	MinFreeBlocks int
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

// setDefaults fills zero fields; available is the non-reserved page count
// and ppb the pages per block (needed to leave whole blocks of slack).
func (c *Config) setDefaults(available, ppb int) {
	if c.GCFreeFraction == 0 {
		c.GCFreeFraction = 0.002
	}
	if c.MinFreeBlocks == 0 {
		c.MinFreeBlocks = 3
	}
	if c.LogicalPages == 0 {
		c.LogicalPages = available * 98 / 100
		if max := available - (c.MinFreeBlocks+2)*ppb; c.LogicalPages > max {
			c.LogicalPages = max
		}
	}
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

type blockState = gc.BlockState

const (
	blockFree     = gc.BlockFree
	blockActive   = gc.BlockActive
	blockInUse    = gc.BlockInUse
	blockReserved = gc.BlockReserved
)

const invalidPPN = -1

// Driver is the FTL instance over one MTD device. Not safe for concurrent
// use, like the layers below it.
type Driver struct {
	gc.Cleaner // watermark loop, erase policy, EraseBlockSet, hooks

	dev *mtd.Driver
	cfg Config

	ppb     int
	nblocks int

	mapTable []int32 // lpn → ppn
	rmap     []int32 // ppn → lpn, invalidPPN when the page holds no valid data
	valid    []int32 // per block: valid pages
	written  []int32 // per block: programmed pages
	state    []blockState

	// Write frontiers. The single-frontier default appends host writes
	// and garbage-collection copies to the same active block (gcActive
	// stays -1 and unused); with Config.DualFrontier they are separated.
	hostActive int // -1 when none
	gcActive   int // -1 when none
	freeQueue  []int32
	seq        uint32
	counters   Counters

	spareBuf [nand.SpareInfoSize]byte
	oobBuf   []byte // full-spare scratch when ECC is on
	copyBuf  []byte
	pageSize int
}

// New creates an FTL driver on a device. The device's blocks (minus any
// reserved ones) all start free; use Mount to adopt a device with existing
// data.
func New(dev *mtd.Driver, cfg Config) (*Driver, error) {
	d, err := prepare(dev, cfg)
	if err != nil {
		return nil, err
	}
	return d, nil
}

func prepare(dev *mtd.Driver, cfg Config) (*Driver, error) {
	nblocks := dev.Blocks()
	ppb := dev.Info().Geometry.PagesPerBlock
	reserved := make(map[int]bool, len(cfg.Reserved))
	for _, b := range cfg.Reserved {
		if b < 0 || b >= nblocks {
			return nil, fmt.Errorf("ftl: reserved block %d out of range", b)
		}
		reserved[b] = true
	}
	available := (nblocks - len(reserved)) * ppb
	cfg.setDefaults(available, ppb)
	if cfg.LogicalPages <= 0 {
		return nil, fmt.Errorf("ftl: logical space %d pages is empty", cfg.LogicalPages)
	}
	minSlack := cfg.MinFreeBlocks + 2
	if cfg.LogicalPages > available-minSlack*ppb {
		return nil, fmt.Errorf("ftl: logical space %d pages leaves less than %d blocks of slack on %d available pages",
			cfg.LogicalPages, minSlack, available)
	}

	d := &Driver{
		dev:        dev,
		cfg:        cfg,
		ppb:        ppb,
		nblocks:    nblocks,
		mapTable:   make([]int32, cfg.LogicalPages),
		rmap:       make([]int32, nblocks*ppb),
		valid:      make([]int32, nblocks),
		written:    make([]int32, nblocks),
		state:      make([]blockState, nblocks),
		hostActive: -1,
		gcActive:   -1,
	}
	for i := range d.mapTable {
		d.mapTable[i] = invalidPPN
	}
	for i := range d.rmap {
		d.rmap[i] = invalidPPN
	}
	for b := 0; b < nblocks; b++ {
		if reserved[b] {
			d.state[b] = blockReserved
		} else {
			d.state[b] = blockFree
			d.freeQueue = append(d.freeQueue, int32(b))
		}
	}
	d.Cleaner = gc.New(gc.Config{
		Name: "ftl", Dev: dev, NoSpace: ErrNoSpace, Stats: &d.counters.Counters,
		Victim:  func() (int, bool) { return d.GreedyVictim(d.state, d.written, d.valid) },
		Recycle: d.recycle, Reclaim: d.reclaim, Settle: d.settle,
	}, len(d.freeQueue), cfg.GCFreeFraction, cfg.MinFreeBlocks)
	d.pageSize = dev.Info().Geometry.PageSize
	if cfg.ReadRefresh && !cfg.ECC {
		return nil, errors.New("ftl: read refresh requires ECC")
	}
	if cfg.ECC {
		if cfg.NoSpare {
			return nil, errors.New("ftl: ECC needs spare areas")
		}
		if d.pageSize%ecc.ChunkSize != 0 {
			return nil, fmt.Errorf("ftl: page size %d not a multiple of the %d-byte ECC chunk", d.pageSize, ecc.ChunkSize)
		}
		need := nand.SpareInfoSize + d.pageSize/ecc.ChunkSize*ecc.Size
		if dev.Info().Geometry.SpareSize < need {
			return nil, fmt.Errorf("ftl: ECC needs %d spare bytes, device has %d", need, dev.Info().Geometry.SpareSize)
		}
		d.oobBuf = make([]byte, dev.Info().Geometry.SpareSize)
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
		d.rmap[old] = invalidPPN
		d.valid[int(old)/d.ppb]--
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
		for i := range buf {
			buf[i] = 0xFF
		}
		return false, nil
	}
	d.counters.HostReads++
	if d.cfg.ECC && len(buf) == d.pageSize {
		before := d.counters.ECCCorrected
		if err := d.readCorrected(int(ppn), buf); err != nil {
			return false, err
		}
		if d.cfg.ReadRefresh && d.counters.ECCCorrected > before {
			if err := d.refresh(lpn, buf); err != nil {
				return false, err
			}
		}
		return true, nil
	}
	if _, err := d.dev.ReadPage(int(ppn), buf, nil); err != nil {
		return false, err
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
	ppn, err := d.allocProgram(lpn, data, true)
	if err != nil {
		return err
	}
	d.commitMapping(lpn, ppn)
	d.counters.Refreshes++
	return nil
}

// readCorrected reads a full page and repairs single-bit errors against the
// stored Hamming codes. Pages written without codes (e.g. partial writes)
// pass through unverified.
func (d *Driver) readCorrected(ppn int, buf []byte) error {
	if _, err := d.dev.ReadPage(ppn, buf, d.oobBuf); err != nil {
		return err
	}
	codes := d.oobBuf[nand.SpareInfoSize : nand.SpareInfoSize+d.pageSize/ecc.ChunkSize*ecc.Size]
	blank := true
	for _, b := range codes {
		if b != 0xFF {
			blank = false
			break
		}
	}
	if blank {
		return nil // no codes stored for this page
	}
	n, err := ecc.CorrectPage(buf, codes)
	if err != nil {
		return fmt.Errorf("ftl: page %d: %w", ppn, err)
	}
	d.counters.ECCCorrected += int64(n)
	return nil
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
	ppn, err := d.allocProgram(lpn, data, cold)
	if err != nil {
		return err
	}
	d.counters.HostWrites++
	d.commitMapping(lpn, ppn)
	return nil
}

// maxProgramRetries bounds how many fresh pages a single logical write may
// burn before the failure is surfaced; each retry lands in a different
// block, so the bound is only reached under pathological fault schedules.
const maxProgramRetries = 8

// allocProgram allocates a page on the requested frontier and programs it,
// rerouting to a fresh page when the program is rejected with an injected
// fault. The failed page stays allocated but dead — garbage collection
// reclaims it with the rest of its block — and the frontier is closed over
// the failed block first, so the retry lands in a different block (a
// grown-bad active block cannot absorb every attempt).
func (d *Driver) allocProgram(lpn int, data []byte, gc bool) (int, error) {
	for attempt := 0; ; attempt++ {
		ppn, err := d.allocPage(gc)
		if err != nil {
			return 0, err
		}
		err = d.program(ppn, lpn, data)
		if err == nil {
			return ppn, nil
		}
		if !errors.Is(err, nand.ErrInjected) || attempt >= maxProgramRetries {
			return 0, err
		}
		d.counters.ProgramRetries++
		d.closeFrontierOver(ppn / d.ppb)
	}
}

// closeFrontierOver retires block b as a write frontier so the next
// allocation opens a different block.
func (d *Driver) closeFrontierOver(b int) {
	if d.hostActive == b {
		d.hostActive = -1
		d.state[b] = blockInUse
	}
	if d.gcActive == b {
		d.gcActive = -1
		d.state[b] = blockInUse
	}
}

// program writes data+spare to a physical page. With ECC enabled and a
// full page of data, the Hamming codes go into the spare area after the
// SpareInfo.
func (d *Driver) program(ppn int, lpn int, data []byte) error {
	var oob []byte
	if !d.cfg.NoSpare {
		d.seq++
		info := nand.SpareInfo{LBA: uint32(lpn), Seq: d.seq, ECC: nand.ComputeECC(data)}
		if d.cfg.ECC && len(data) == d.pageSize {
			info.Encode(d.oobBuf)
			codes, err := ecc.CalcPage(data)
			if err != nil {
				return err
			}
			copy(d.oobBuf[nand.SpareInfoSize:], codes)
			oob = d.oobBuf[:nand.SpareInfoSize+len(codes)]
		} else {
			oob = info.Encode(d.spareBuf[:])
		}
	}
	return d.dev.WritePage(ppn, data, oob)
}

// commitMapping points lpn at ppn and invalidates any previous copy.
func (d *Driver) commitMapping(lpn, ppn int) {
	if old := d.mapTable[lpn]; old != invalidPPN {
		d.rmap[old] = invalidPPN
		d.valid[int(old)/d.ppb]--
	}
	d.mapTable[lpn] = int32(ppn)
	d.rmap[ppn] = int32(lpn)
	d.valid[ppn/d.ppb]++
}

// allocPage returns the next free physical page on the requested frontier
// (gc selects the relocation frontier), opening a new active block when
// needed.
func (d *Driver) allocPage(gc bool) (int, error) {
	active := &d.hostActive
	if gc && (d.cfg.DualFrontier || d.cfg.HotData != nil) {
		active = &d.gcActive
	}
	if *active >= 0 && int(d.written[*active]) >= d.ppb {
		d.state[*active] = blockInUse
		*active = -1
	}
	if *active < 0 {
		b, err := d.takeFreeBlock()
		if err != nil {
			return 0, err
		}
		*active = b
		d.state[b] = blockActive
	}
	b := *active
	ppn := b*d.ppb + int(d.written[b])
	d.written[b]++
	return ppn, nil
}

// takeFreeBlock pops the head of the free queue. The FIFO discipline is the
// Allocator's dynamic wear leveling: freed blocks rejoin at the tail, so
// allocation rotates through the whole free pool instead of re-wearing the
// most recently freed blocks.
func (d *Driver) takeFreeBlock() (int, error) {
	for len(d.freeQueue) > 0 {
		b := int(d.freeQueue[0])
		d.freeQueue = d.freeQueue[1:]
		if d.state[b] != blockFree {
			continue // retired after being queued
		}
		d.Free--
		return b, nil
	}
	return 0, ErrNoSpace
}
