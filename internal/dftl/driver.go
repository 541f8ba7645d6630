// Package dftl implements a demand-paged page-mapping Flash Translation
// Layer in the style of DFTL (Gupta et al.): the full page-level
// translation table lives in flash as "translation pages", and only a
// bounded cache of them sits in controller RAM, indexed by a small Global
// Translation Directory. The paper's §5.2 notes that plain FTL "is not
// practical in large-scale flash memory because it needs large main-memory
// space to maintain the address translation table" — this layer is that
// remark turned into a system, while still exposing the same two
// integration points the SW Leveler needs (an erase hook and
// EraseBlockSet).
//
// Mapping updates dirty a cached translation page; evictions write it back
// to flash through the same out-of-place allocation stream as data, so
// translation traffic wears blocks (and is wear-leveled) exactly like data.
//
// A Driver shares its chip's single-goroutine confinement and is
// deterministic given its operation sequence; its mapping state — the LRU
// cache order included — round-trips through SaveState/RestoreState for
// checkpoint/resume.
package dftl

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
	// ErrBadLPN reports a logical page outside the exported space.
	ErrBadLPN = errors.New("dftl: logical page out of range")
	// ErrNoSpace reports that garbage collection cannot reclaim anything.
	ErrNoSpace = errors.New("dftl: no reclaimable space")
)

// rmap owner tags: a physical page holds either a data page (owner = lpn)
// or a translation page (owner = tTag | index).
const (
	tTag       = int32(1) << 30
	invalidPPN = -1
)

// Config parameterizes a Driver.
type Config struct {
	// LogicalPages is the exported logical space in pages. Defaults like
	// ftl.Config.
	LogicalPages int
	// CachedTPages is the RAM budget: how many translation pages stay
	// cached (each maps PageSize/4 logical pages). Default 8.
	CachedTPages int
	// GCFreeFraction and MinFreeBlocks as in ftl.Config.
	GCFreeFraction float64
	MinFreeBlocks  int
	// NoSpare disables spare writes (pure simulation speed).
	NoSpare bool
	// Reserved lists blocks excluded from the pool.
	Reserved []int
}

// Counters reports driver activity; the TPage* fields expose the extra
// flash traffic the demand-paged mapping costs, and the cache fields its
// effectiveness.
type Counters struct {
	gc.Counters // LiveCopies counts data pages only
	HostReads   int64
	HostWrites  int64
	TPageCopies int64 // translation pages copied during recycling
	TPageReads  int64 // cache-miss loads from flash
	TPageWrites int64 // dirty evictions and updates written to flash
	CacheHits   int64
	CacheMisses int64
}

type blockState = gc.BlockState

const (
	blockFree     = gc.BlockFree
	blockActive   = gc.BlockActive
	blockInUse    = gc.BlockInUse
	blockReserved = gc.BlockReserved
)

// tpage is one cached translation page.
type tpage struct {
	idx     int
	entries []int32 // logical-to-physical within this translation page
	dirty   bool
	ref     bool // clock bit
}

// Driver is the demand-paged FTL. Not safe for concurrent use.
type Driver struct {
	gc.Cleaner // watermark loop, erase policy, EraseBlockSet, hooks

	dev *mtd.Driver
	cfg Config

	ppb      int
	nblocks  int
	pageSize int
	perT     int // mapping entries per translation page
	ntpages  int

	gtd    []int32   // translation page index → ppn (invalidPPN: never flushed)
	shadow [][]int32 // authoritative entries per translation page (the
	// simulator's stand-in for flash-stored bytes; flash ops are still
	// issued and counted for every load and flush)

	cache   map[int]*tpage
	clock   []int // translation page indexes in clock order
	hand    int
	rmap    []int32
	valid   []int32
	written []int32
	state   []blockState
	active  int
	freeQ   []int32
	seq     uint32

	counters Counters
	spareBuf [nand.SpareInfoSize]byte
	copyBuf  []byte // lazily allocated page buffer for GC data moves
}

// New builds the driver over a device.
func New(dev *mtd.Driver, cfg Config) (*Driver, error) {
	nblocks := dev.Blocks()
	ppb := dev.Info().Geometry.PagesPerBlock
	pageSize := dev.Info().Geometry.PageSize
	reserved := make(map[int]bool, len(cfg.Reserved))
	for _, b := range cfg.Reserved {
		if b < 0 || b >= nblocks {
			return nil, fmt.Errorf("dftl: reserved block %d out of range", b)
		}
		reserved[b] = true
	}
	available := (nblocks - len(reserved)) * ppb
	if cfg.GCFreeFraction == 0 {
		cfg.GCFreeFraction = 0.002
	}
	if cfg.MinFreeBlocks == 0 {
		cfg.MinFreeBlocks = 3
	}
	if cfg.CachedTPages == 0 {
		cfg.CachedTPages = 8
	}
	if cfg.CachedTPages < 1 {
		return nil, fmt.Errorf("dftl: cache of %d translation pages", cfg.CachedTPages)
	}
	perT := pageSize / 4
	if perT < 1 {
		return nil, fmt.Errorf("dftl: page size %d too small for mapping entries", pageSize)
	}
	if cfg.LogicalPages == 0 {
		cfg.LogicalPages = available * 90 / 100
		if max := available - (cfg.MinFreeBlocks+2)*ppb - available/perT - ppb; cfg.LogicalPages > max {
			cfg.LogicalPages = max
		}
	}
	if cfg.LogicalPages <= 0 {
		return nil, fmt.Errorf("dftl: logical space %d pages", cfg.LogicalPages)
	}
	ntpages := (cfg.LogicalPages + perT - 1) / perT
	// Slack must cover data + live translation pages.
	minSlack := (cfg.MinFreeBlocks+2)*ppb + ntpages
	if cfg.LogicalPages > available-minSlack {
		return nil, fmt.Errorf("dftl: logical space %d pages leaves no slack on %d available", cfg.LogicalPages, available)
	}

	d := &Driver{
		dev:      dev,
		cfg:      cfg,
		ppb:      ppb,
		nblocks:  nblocks,
		pageSize: pageSize,
		perT:     perT,
		ntpages:  ntpages,
		gtd:      make([]int32, ntpages),
		shadow:   make([][]int32, ntpages),
		cache:    make(map[int]*tpage, cfg.CachedTPages),
		rmap:     make([]int32, nblocks*ppb),
		valid:    make([]int32, nblocks),
		written:  make([]int32, nblocks),
		state:    make([]blockState, nblocks),
		active:   -1,
	}
	for i := range d.gtd {
		d.gtd[i] = invalidPPN
	}
	for i := range d.rmap {
		d.rmap[i] = invalidPPN
	}
	for b := 0; b < nblocks; b++ {
		if reserved[b] {
			d.state[b] = blockReserved
		} else {
			d.freeQ = append(d.freeQ, int32(b))
		}
	}
	d.Cleaner = gc.New(gc.Config{
		Name: "dftl", Dev: dev, NoSpace: ErrNoSpace, Stats: &d.counters.Counters,
		Victim:  func() (int, bool) { return d.GreedyVictim(d.state, d.written, d.valid) },
		Recycle: d.recycle, Reclaim: d.reclaim, Settle: d.settle,
	}, len(d.freeQ), cfg.GCFreeFraction, cfg.MinFreeBlocks)
	return d, nil
}

// LogicalPages returns the exported logical space in pages.
func (d *Driver) LogicalPages() int { return d.cfg.LogicalPages }

// Counters returns a snapshot of the activity counters.
func (d *Driver) Counters() Counters { return d.counters }

// GCCounters returns the cleaner counters with translation-page copies
// folded into LiveCopies: to the harness a copied page is a copied page.
func (d *Driver) GCCounters() gc.Counters {
	c := d.counters.Counters
	//lint:ignore swlint/obspair folding a counters snapshot, not accounting new copies
	c.LiveCopies += d.counters.TPageCopies
	return c
}

// MappingRAM returns the resident mapping state in bytes: the GTD plus the
// cached translation pages — the number the paper's §5.2 remark is about
// (compare ftl's 4 bytes per logical page).
func (d *Driver) MappingRAM() int {
	return 4*d.ntpages + d.cfg.CachedTPages*d.pageSize
}

// shadowOf returns (allocating lazily) the authoritative entry slice of a
// translation page.
func (d *Driver) shadowOf(t int) []int32 {
	if d.shadow[t] == nil {
		s := make([]int32, d.perT)
		for i := range s {
			s[i] = invalidPPN
		}
		d.shadow[t] = s
	}
	return d.shadow[t]
}

// loadTPage brings a translation page into the cache, counting flash reads
// on misses and flushing a victim when the cache is full.
func (d *Driver) loadTPage(t int) (*tpage, error) {
	if tp, ok := d.cache[t]; ok {
		d.counters.CacheHits++
		tp.ref = true
		return tp, nil
	}
	d.counters.CacheMisses++
	if len(d.cache) >= d.cfg.CachedTPages {
		if err := d.evictOne(); err != nil {
			return nil, err
		}
	}
	// Cache-miss load: one flash read when the page has ever been flushed.
	if ppn := d.gtd[t]; ppn != invalidPPN {
		if _, err := d.dev.ReadPage(int(ppn), nil, nil); err != nil {
			return nil, err
		}
		d.counters.TPageReads++
	}
	tp := &tpage{idx: t, entries: d.shadowOf(t), ref: true}
	d.cache[t] = tp
	d.clock = append(d.clock, t)
	return tp, nil
}

// evictOne flushes (if dirty) and drops one cached translation page chosen
// by the clock algorithm.
func (d *Driver) evictOne() error {
	for {
		if len(d.clock) == 0 {
			return nil
		}
		if d.hand >= len(d.clock) {
			d.hand = 0
		}
		t := d.clock[d.hand]
		tp, ok := d.cache[t]
		if !ok {
			d.clock = append(d.clock[:d.hand], d.clock[d.hand+1:]...)
			continue
		}
		if tp.ref {
			tp.ref = false
			d.hand++
			continue
		}
		if tp.dirty {
			if err := d.flushTPage(tp); err != nil {
				return err
			}
		}
		delete(d.cache, t)
		d.clock = append(d.clock[:d.hand], d.clock[d.hand+1:]...)
		return nil
	}
}

// flushTPage writes a dirty translation page to flash out-of-place,
// invalidating its previous copy and updating the GTD.
func (d *Driver) flushTPage(tp *tpage) error {
	ppn, err := d.allocProgram(uint32(tTag)|uint32(tp.idx), nil)
	if err != nil {
		return err
	}
	if old := d.gtd[tp.idx]; old != invalidPPN {
		d.rmap[old] = invalidPPN
		d.valid[int(old)/d.ppb]--
	}
	d.gtd[tp.idx] = int32(ppn)
	d.rmap[ppn] = tTag | int32(tp.idx)
	d.valid[ppn/d.ppb]++
	d.counters.TPageWrites++
	tp.dirty = false
	return nil
}

// program writes a page with the owner id in its spare area. data may be
// nil for metadata-only traffic (translation pages keep their authoritative
// entries in the in-RAM shadow).
func (d *Driver) program(ppn int, owner uint32, data []byte) error {
	var oob []byte
	if !d.cfg.NoSpare {
		d.seq++
		oob = nand.SpareInfo{LBA: owner, Seq: d.seq}.Encode(d.spareBuf[:])
	}
	return d.dev.WritePage(ppn, data, oob)
}

// maxProgramRetries bounds the fresh pages one logical write may burn before
// its failure is surfaced; each retry lands in a different block.
const maxProgramRetries = 8

// allocProgram allocates a page and programs it, rerouting to a fresh page
// on an injected program fault. The failed page stays allocated but dead
// (garbage collection reclaims it) and the active frontier is closed over
// the failed block, so a grown-bad block cannot absorb every attempt.
func (d *Driver) allocProgram(owner uint32, data []byte) (int, error) {
	for attempt := 0; ; attempt++ {
		ppn, err := d.allocPage()
		if err != nil {
			return 0, err
		}
		err = d.program(ppn, owner, data)
		if err == nil {
			return ppn, nil
		}
		if !errors.Is(err, nand.ErrInjected) || attempt >= maxProgramRetries {
			return 0, err
		}
		d.counters.ProgramRetries++
		if b := ppn / d.ppb; d.active == b {
			d.active = -1
			d.state[b] = blockInUse
		}
	}
}

// allocPage hands out the next free physical page (FIFO block rotation).
func (d *Driver) allocPage() (int, error) {
	if d.active >= 0 && int(d.written[d.active]) >= d.ppb {
		d.state[d.active] = blockInUse
		d.active = -1
	}
	if d.active < 0 {
		for len(d.freeQ) > 0 {
			b := int(d.freeQ[0])
			d.freeQ = d.freeQ[1:]
			if d.state[b] != blockFree {
				continue
			}
			d.Free--
			d.active = b
			d.state[b] = blockActive
			break
		}
		if d.active < 0 {
			return 0, ErrNoSpace
		}
	}
	b := d.active
	ppn := b*d.ppb + int(d.written[b])
	d.written[b]++
	return ppn, nil
}

// WritePage writes a logical page. data may be nil in metadata-only
// simulations; on a data-retaining chip a non-nil payload is stored and
// read back by ReadPage, so the layer can sit under a block device.
func (d *Driver) WritePage(lpn int, data []byte) error {
	if lpn < 0 || lpn >= d.cfg.LogicalPages {
		return fmt.Errorf("%w: %d", ErrBadLPN, lpn)
	}
	sp := d.Tracer.Begin(obs.SpanTranslate, -1, int64(lpn))
	defer d.Tracer.End(sp)
	if d.Free <= d.Watermark {
		if err := d.EnsureHeadroom(); err != nil {
			return err
		}
	}
	tp, err := d.loadTPage(lpn / d.perT)
	if err != nil {
		return err
	}
	ppn, err := d.allocProgram(uint32(lpn), data)
	if err != nil {
		return err
	}
	d.counters.HostWrites++
	off := lpn % d.perT
	if old := tp.entries[off]; old != invalidPPN {
		d.rmap[old] = invalidPPN
		d.valid[int(old)/d.ppb]--
	}
	tp.entries[off] = int32(ppn)
	tp.dirty = true
	tp.ref = true
	d.rmap[ppn] = int32(lpn)
	d.valid[ppn/d.ppb]++
	return nil
}

// ReadPage reads a logical page; ok reports whether it was mapped.
func (d *Driver) ReadPage(lpn int, buf []byte) (bool, error) {
	if lpn < 0 || lpn >= d.cfg.LogicalPages {
		return false, fmt.Errorf("%w: %d", ErrBadLPN, lpn)
	}
	tp, err := d.loadTPage(lpn / d.perT)
	if err != nil {
		return false, err
	}
	ppn := tp.entries[lpn%d.perT]
	if ppn == invalidPPN {
		for i := range buf {
			buf[i] = 0xFF
		}
		return false, nil
	}
	d.counters.HostReads++
	if _, err := d.dev.ReadPage(int(ppn), buf, nil); err != nil {
		return false, err
	}
	return true, nil
}

// Discard drops a logical page's mapping (TRIM), dirtying its translation
// page. Unmapped pages are a no-op.
func (d *Driver) Discard(lpn int) error {
	if lpn < 0 || lpn >= d.cfg.LogicalPages {
		return fmt.Errorf("%w: %d", ErrBadLPN, lpn)
	}
	tp, err := d.loadTPage(lpn / d.perT)
	if err != nil {
		return err
	}
	off := lpn % d.perT
	if old := tp.entries[off]; old != invalidPPN {
		d.rmap[old] = invalidPPN
		d.valid[int(old)/d.ppb]--
		tp.entries[off] = invalidPPN
		tp.dirty = true
	}
	return nil
}

// IsMapped reports whether a logical page holds data (loading its
// translation page if needed; errors report false).
func (d *Driver) IsMapped(lpn int) bool {
	if lpn < 0 || lpn >= d.cfg.LogicalPages {
		return false
	}
	tp, err := d.loadTPage(lpn / d.perT)
	if err != nil {
		return false
	}
	return tp.entries[lpn%d.perT] != invalidPPN
}
