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
	invalidPPN = gc.NoPage
)

// Config parameterizes a Driver.
type Config struct {
	// LogicalPages is the exported logical space in pages. Defaults like
	// ftl.Config.
	LogicalPages int
	// CachedTPages is the RAM budget: how many translation pages stay
	// cached (each maps PageSize/4 logical pages). Default 8.
	CachedTPages int
	// GCFreeFraction as in ftl.Config.
	GCFreeFraction float64
	// NoSpare disables spare writes (pure simulation speed).
	NoSpare bool
	// Reserved lists blocks excluded from the pool.
	Reserved []int
}

// Counters reports driver activity; the TPage* fields expose the extra
// flash traffic the demand-paged mapping costs, and the cache fields its
// effectiveness.
type Counters struct {
	gc.Counters // LiveCopies counts data pages only (see Driver.Counters)
	HostReads   int64
	HostWrites  int64
	TPageCopies int64 // translation pages copied during recycling
	TPageReads  int64 // cache-miss loads from flash
	TPageWrites int64 // dirty evictions and updates written to flash
	CacheHits   int64
	CacheMisses int64
}

// tpage is one cached translation page.
type tpage struct {
	idx     int
	entries []int32 // logical-to-physical within this translation page
	dirty   bool
	ref     bool // clock bit
}

// Driver is the demand-paged FTL. Not safe for concurrent use.
type Driver struct {
	// The Allocator and Cleaner: free pool, page programmer, reverse map
	// (owner tags, see tTag) and block counters, the single write frontier,
	// watermark loop, erase policy, EraseBlockSet, hooks.
	gc.PageTables

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

	cache map[int]*tpage
	clock []int // translation page indexes in clock order
	hand  int

	// counters.LiveCopies counts every page a recycle moved, translation
	// pages included (the harness's view, GCCounters); TPageCopies is the
	// translation-page share, which Counters subtracts back out.
	counters Counters
}

// New builds the driver over a device.
func New(dev *mtd.Driver, cfg Config) (*Driver, error) {
	ppb := dev.Info().Geometry.PagesPerBlock
	pageSize := dev.Info().Geometry.PageSize
	d := &Driver{dev: dev, ppb: ppb, nblocks: dev.Blocks(), pageSize: pageSize}
	err := d.Init(gc.Config{
		Name: "dftl", Dev: dev, NoSpace: ErrNoSpace, Stats: &d.counters.Counters,
		Reserved: cfg.Reserved, GCFreeFraction: cfg.GCFreeFraction, NoSpare: cfg.NoSpare,
		Frontiers: 1,
	}, d.relocate)
	if err != nil {
		return nil, err
	}
	available := d.Free * ppb
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
		if max := available - gc.MinSlack*ppb - available/perT - ppb; cfg.LogicalPages > max {
			cfg.LogicalPages = max
		}
	}
	if cfg.LogicalPages <= 0 {
		return nil, fmt.Errorf("dftl: logical space %d pages", cfg.LogicalPages)
	}
	ntpages := (cfg.LogicalPages + perT - 1) / perT
	// Slack must cover data + live translation pages.
	if cfg.LogicalPages > available-gc.MinSlack*ppb-ntpages {
		return nil, fmt.Errorf("dftl: logical space %d pages leaves no slack on %d available", cfg.LogicalPages, available)
	}
	d.cfg, d.perT, d.ntpages = cfg, perT, ntpages
	d.gtd = make([]int32, ntpages)
	for i := range d.gtd {
		d.gtd[i] = invalidPPN
	}
	d.shadow = make([][]int32, ntpages)
	d.cache = make(map[int]*tpage, cfg.CachedTPages)
	return d, nil
}

// LogicalPages returns the exported logical space in pages.
func (d *Driver) LogicalPages() int { return d.cfg.LogicalPages }

// Counters returns a snapshot of the activity counters, LiveCopies counting
// data pages only. GCCounters keeps translation-page copies folded in: to
// the harness a copied page is a copied page.
func (d *Driver) Counters() Counters {
	c := d.counters
	//lint:ignore swlint/obspair splitting a counters snapshot, not accounting new copies
	c.LiveCopies -= c.TPageCopies
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
	owner := tTag | int32(tp.idx)
	ppn, err := d.AllocProgram(uint32(owner), nil, false)
	if err != nil {
		return err
	}
	if old := d.gtd[tp.idx]; old != invalidPPN {
		d.Invalidate(int(old))
	}
	d.gtd[tp.idx] = int32(ppn)
	d.Claim(ppn, owner)
	d.counters.TPageWrites++
	tp.dirty = false
	return nil
}

// relocate moves one live page out of a block being recycled
// (gc.PageTables.Init) and repoints its owner.
func (d *Driver) relocate(src int, owner int32) (int, error) {
	if owner&tTag != 0 {
		// Live translation page: move it and repoint the GTD. Its payload
		// is shadowed in RAM, so the flash read is counted without copying
		// bytes.
		if _, err := d.dev.ReadPage(src, nil, nil); err != nil {
			return 0, err
		}
		dst, err := d.AllocProgram(uint32(owner), nil, true)
		if err != nil {
			return 0, err
		}
		d.gtd[owner&^tTag] = int32(dst)
		d.counters.TPageCopies++
		return dst, nil
	}
	// Live data page: move it (payload included, so stored data survives
	// GC) and repoint its mapping entry, which needs the translation page
	// in cache (and dirties it).
	if _, err := d.Read(src, d.Buf); err != nil {
		return 0, err
	}
	lpn := int(owner)
	tp, err := d.loadTPage(lpn / d.perT)
	if err != nil {
		return 0, err
	}
	dst, err := d.AllocProgram(uint32(lpn), d.Buf, true)
	if err != nil {
		return 0, err
	}
	tp.entries[lpn%d.perT] = int32(dst)
	tp.dirty = true
	return dst, nil
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
	ppn, err := d.AllocProgram(uint32(lpn), data, false)
	if err != nil {
		return err
	}
	d.counters.HostWrites++
	off := lpn % d.perT
	if old := tp.entries[off]; old != invalidPPN {
		d.Invalidate(int(old))
	}
	tp.entries[off] = int32(ppn)
	tp.dirty = true
	tp.ref = true
	d.Claim(ppn, int32(lpn))
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
		gc.Blank(buf)
		return false, nil
	}
	d.counters.HostReads++
	if _, err := d.Read(int(ppn), buf); err != nil {
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
		d.Invalidate(int(old))
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
