// Package gc is the half of a translation layer that does not depend on how
// the layer maps pages — the paper's Allocator and Cleaner (§3.1, Figure 3)
// and the page programmer under both — which the ftl, nftl, and dftl drivers
// embed: the free pool with its FIFO rotation (Pool), spare-area and ECC page
// I/O (Pager), the watermark loop, erase policy, EraseBlockSet entry point,
// counters and hooks (Cleaner), and the block tables, page allocation, victim
// scan and recycle frame of the two page-mapping drivers (PageTables). A
// driver contributes only what differs: its mapping structure, its victim
// policy, and where a relocated page's new address is recorded.
//
// Everything here shares its driver's single-goroutine confinement.
package gc

import (
	"errors"
	"fmt"

	"flashswl/internal/mtd"
	"flashswl/internal/nand"
	"flashswl/internal/obs"
)

// Counters is the cleaner activity every driver reports, embedded in each
// driver's own Counters. Forced* fields isolate work performed on behalf of
// the SW Leveler's EraseBlockSet calls, which is exactly the "extra
// overhead" the paper's Section 4 and Figures 6–7 quantify.
type Counters struct {
	GCRuns         int64 // cleaner invocations from the free-space watermark
	Erases         int64 // all block erases
	LiveCopies     int64 // valid pages copied during any recycling
	ForcedSets     int64 // EraseBlockSet calls served
	ForcedErases   int64 // erases during forced (static-wear-leveling) recycling
	ForcedCopies   int64 // live copies during forced recycling
	RetiredBlocks  int64 // worn-out or unerasable blocks taken out of service
	ProgramRetries int64 // programs retried or rerouted after an injected fault
	EraseRetries   int64 // erases retried after an injected fault
}

// Config wires a Cleaner to its driver.
type Config struct {
	// Name prefixes error messages (the driver's package name).
	Name string
	Dev  *mtd.Driver
	// NoSpace is the driver's ErrNoSpace, returned when nothing can be
	// reclaimed.
	NoSpace error
	// Stats points at the gc.Counters embedded in the driver's Counters.
	Stats *Counters
	// Reserved lists physical blocks excluded from the pool, e.g. the
	// SW Leveler's snapshot blocks.
	Reserved []int
	// GCFreeFraction is the garbage-collection trigger: the cleaner runs
	// while free blocks are at or under this fraction of all blocks. Zero
	// selects the paper's 0.2%.
	GCFreeFraction float64
	// NoSpare, ECC and Corrected configure the page programmer; see Pager.
	NoSpare   bool
	ECC       bool
	Corrected *int64
	// Frontiers and Split configure PageTables: how many write frontiers
	// the tables (and their state record) carry, 1 or 2, and whether
	// relocated and cold pages go to the second instead of mixing with host
	// writes on the first.
	Frontiers int
	Split     bool

	// Victim picks the next unit to recycle under the watermark: a block
	// for ftl and dftl, a virtual block for nftl.
	Victim func() (int, bool)
	// Recycle moves the victim's live pages away and erases its blocks
	// through Cleaner.Erase.
	Recycle func(victim int) error
	// Reclaim recycles one physical block of a forced set whatever its
	// state: reserved blocks are skipped, free ones bare-erased.
	Reclaim func(block int) error
	// Settle resets the driver's own per-block bookkeeping after an erase
	// attempt; erased is false when the block was retired instead. The pool
	// state itself is the Cleaner's to change.
	Settle func(block int, erased bool)
}

// Cleaner is the mapping-independent half of a driver: the free pool, the
// page programmer, and the garbage-collection skeleton over them. The
// exported fields are for the embedding driver: Free (the Pool's) and
// Watermark so its WritePage can test for headroom inline, ScanPos for its
// victim scan.
type Cleaner struct {
	Pool
	Pager

	Watermark int
	ScanPos   int // the victim scan's cyclic position
	Tracer    *obs.Tracer

	cfg      Config
	nblocks  int
	onErase  func(block int)
	observer obs.EventSink

	inForced           bool
	forcedLo, forcedHi int // block-set bounds during EraseBlockSet
	forcedDone         []bool
}

// minFreeBlocks floors the watermark so small devices keep enough headroom
// for recycling. MinSlack is how many blocks a driver's logical space must
// leave outside the export: that floor plus the two a recycle has open.
const (
	minFreeBlocks = 3
	MinSlack      = minFreeBlocks + 2
)

// New builds the pool, pager and cleaner of a driver over cfg.Dev, every
// block outside cfg.Reserved free. The watermark at or under which the
// cleaner runs is cfg.GCFreeFraction of all blocks, floored by minFreeBlocks.
func New(cfg Config) (Cleaner, error) {
	nblocks := cfg.Dev.Blocks()
	pool, err := newPool(cfg.Name, nblocks, cfg.Reserved, cfg.NoSpace)
	if err != nil {
		return Cleaner{}, err
	}
	pager, err := newPager(cfg)
	if err != nil {
		return Cleaner{}, err
	}
	if cfg.GCFreeFraction == 0 {
		cfg.GCFreeFraction = 0.002
	}
	watermark := int(float64(nblocks) * cfg.GCFreeFraction)
	if watermark < minFreeBlocks {
		watermark = minFreeBlocks
	}
	return Cleaner{Pool: pool, Pager: pager, Watermark: watermark, cfg: cfg, nblocks: nblocks}, nil
}

// GCCounters returns a snapshot of the cleaner counters.
func (c *Cleaner) GCCounters() Counters { return *c.cfg.Stats }

// SetOnErase registers the erase observer; the SW Leveler's OnErase goes
// here. Pass nil to remove it.
func (c *Cleaner) SetOnErase(fn func(block int)) { c.onErase = fn }

// SetObserver registers an event sink for cleaner activity (block erases,
// retirements, live-copy batches). Pass nil to remove it; a nil sink costs
// one branch per event site.
func (c *Cleaner) SetObserver(s obs.EventSink) { c.observer = s }

// SetTracer attaches a causal span tracer: every host write then opens a
// translate span whose children attribute garbage collection, live copies,
// and erases to the write that caused them. Pass nil to remove it; a nil
// tracer costs one branch per span site.
func (c *Cleaner) SetTracer(t *obs.Tracer) { c.Tracer = t }

// Forced reports whether the cleaner is working for the SW Leveler's
// EraseBlockSet; drivers count ForcedCopies under it.
func (c *Cleaner) Forced() bool { return c.inForced }

// Emit reports a cleaner event. Forced tags work done on behalf of the
// SW Leveler's EraseBlockSet, matching the Forced* counters.
//
//lint:hotpath cleaner event emission
func (c *Cleaner) Emit(kind obs.EventKind, block, pages int) {
	if c.observer == nil {
		return
	}
	c.observer.Observe(obs.Event{Kind: kind, Block: block, Page: -1, Pages: pages, Forced: c.inForced, Findex: -1})
}

// EnsureHeadroom runs garbage collection until the free pool is above the
// watermark. It gives up with the driver's ErrNoSpace when nothing is
// reclaimable, or when as many victims as the device has blocks were
// recycled in a row without the pool ever growing: each of those victims
// consumed as much space as it freed, and more rounds would only wear the
// device out.
func (c *Cleaner) EnsureHeadroom() error {
	best, stalled := c.Free, 0
	for c.Free <= c.Watermark {
		victim, ok := c.cfg.Victim()
		if !ok {
			return c.cfg.NoSpace
		}
		c.cfg.Stats.GCRuns++
		if err := c.cfg.Recycle(victim); err != nil {
			return err
		}
		if c.Free > best {
			best, stalled = c.Free, 0
		} else if stalled++; stalled >= c.nblocks {
			return fmt.Errorf("%w: garbage collection makes no progress", c.cfg.NoSpace)
		}
	}
	return nil
}

// Erase erases a block and returns it to the free pool. An injected erase
// fault gets one retry (distinguishing transient failures from grown bad
// blocks); a block whose endurance is exhausted (on chips configured to
// fail) or whose erase keeps failing is retired instead of freed — simple
// bad-block management.
//
//lint:hotpath every block erase of every driver
func (c *Cleaner) Erase(b int) error {
	sp := c.Tracer.Begin(obs.SpanErase, b, 0)
	defer c.Tracer.End(sp)
	err := c.cfg.Dev.EraseBlock(b)
	if err != nil && errors.Is(err, nand.ErrInjected) {
		c.cfg.Stats.EraseRetries++
		err = c.cfg.Dev.EraseBlock(b)
	}
	if err != nil {
		if !errors.Is(err, nand.ErrWornOut) && !errors.Is(err, nand.ErrInjected) {
			return err
		}
		c.retire(b)
		c.cfg.Settle(b, false)
		c.cfg.Stats.RetiredBlocks++
		c.Emit(obs.EvBlockRetired, b, 0)
		return nil
	}
	c.cfg.Stats.Erases++
	if c.inForced {
		c.cfg.Stats.ForcedErases++
		if b >= c.forcedLo && b < c.forcedHi {
			c.forcedDone[b-c.forcedLo] = true
		}
	}
	c.release(b)
	c.cfg.Settle(b, true)
	c.Emit(obs.EvBlockErased, b, 0)
	if c.onErase != nil {
		c.onErase(b)
	}
	return nil
}

// EraseBlockSet garbage-collects every block of block set findex under
// mapping mode k, regardless of the greedy cost-benefit test: valid (cold)
// data is copied away and each block is erased. This is the entry point the
// SW Leveler drives (core.Cleaner).
func (c *Cleaner) EraseBlockSet(findex, k int) error {
	if k < 0 || findex < 0 {
		return fmt.Errorf("%s: invalid block set (%d, %d)", c.cfg.Name, findex, k)
	}
	lo := findex << uint(k)
	if lo >= c.nblocks {
		return fmt.Errorf("%s: block set %d out of range under k=%d", c.cfg.Name, findex, k)
	}
	hi := lo + 1<<uint(k)
	if hi > c.nblocks {
		hi = c.nblocks
	}
	c.cfg.Stats.ForcedSets++
	// Make room for the cold data first so attribution stays clean: any
	// watermark-driven collection here is ordinary greedy work.
	if err := c.EnsureHeadroom(); err != nil {
		return err
	}
	c.inForced = true
	c.forcedLo, c.forcedHi = lo, hi
	if cap(c.forcedDone) < hi-lo {
		c.forcedDone = make([]bool, hi-lo)
	}
	c.forcedDone = c.forcedDone[:hi-lo]
	clear(c.forcedDone)
	defer func() { c.inForced = false; c.forcedLo, c.forcedHi = 0, 0 }()
	for b := lo; b < hi; b++ {
		// A block already erased by this pass (a merge partner, or one that
		// served as a copy destination after an earlier erase here) has a
		// refreshed flag; re-recycling it would only churn.
		if c.forcedDone[b-lo] {
			continue
		}
		if err := c.cfg.Reclaim(b); err != nil {
			return err
		}
	}
	return nil
}
