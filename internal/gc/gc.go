// Package gc is the cleaner skeleton the ftl, nftl, and dftl drivers embed:
// everything about garbage collection that does not depend on how a layer
// maps pages. It owns the free-space watermark loop, the block erase with
// its retry-once / retire-on-failure policy, the SW Leveler's EraseBlockSet
// entry point with the forced-set bookkeeping, the common activity counters,
// the erase/observer/tracer hooks, and the greedy cyclic victim scan the two
// page-mapping drivers share. A driver contributes only what differs: its
// block-state arrays and free queue, how it picks a victim, and how it moves
// live pages out of one (Config's four functions).
//
// A Cleaner shares its driver's single-goroutine confinement.
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

// BlockState is the life cycle of a physical block under the page-mapping
// drivers (ftl, dftl); GreedyVictim scans arrays of it.
type BlockState uint8

const (
	BlockFree BlockState = iota
	BlockActive
	BlockInUse
	BlockReserved
)

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

	// Victim picks the next unit to recycle under the watermark: a block
	// for ftl and dftl, a virtual block for nftl.
	Victim func() (int, bool)
	// Recycle moves the victim's live pages away and erases its blocks
	// through Cleaner.Erase.
	Recycle func(victim int) error
	// Reclaim recycles one physical block of a forced set whatever its
	// state: reserved blocks are skipped, free ones bare-erased.
	Reclaim func(block int) error
	// Settle records the outcome of an erase in the driver's block state —
	// back to the free pool (queued unless it already was free) or, when
	// erased is false, retired — and reports whether the block was free.
	Settle func(block int, erased bool) (wasFree bool)
}

// Cleaner is the shared half of a driver's garbage collector. The exported
// fields are for the embedding driver: Free and Watermark so its WritePage
// can test for headroom inline, ScanPos and Free for its state codec.
type Cleaner struct {
	Free      int // blocks in the free pool
	Watermark int
	ScanPos   int // GreedyVictim's cyclic scan position
	Tracer    *obs.Tracer

	cfg      Config
	nblocks  int
	onErase  func(block int)
	observer obs.EventSink

	inForced           bool
	forcedLo, forcedHi int // block-set bounds during EraseBlockSet
	forcedDone         []bool
}

// New builds the cleaner for a driver whose pool starts with free blocks.
// The watermark at or under which the cleaner runs is gcFreeFraction of all
// blocks, floored by minFreeBlocks.
func New(cfg Config, free int, gcFreeFraction float64, minFreeBlocks int) Cleaner {
	nblocks := cfg.Dev.Blocks()
	watermark := int(float64(nblocks) * gcFreeFraction)
	if watermark < minFreeBlocks {
		watermark = minFreeBlocks
	}
	return Cleaner{Free: free, Watermark: watermark, cfg: cfg, nblocks: nblocks}
}

// FreeBlocks returns the number of free blocks in the pool.
func (c *Cleaner) FreeBlocks() int { return c.Free }

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
		if c.cfg.Settle(b, false) {
			c.Free--
		}
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
	if !c.cfg.Settle(b, true) {
		c.Free++
	}
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
	for i := range c.forcedDone {
		c.forcedDone[i] = false
	}
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

// GreedyVictim returns the next recycling candidate of a page-mapping
// driver (paper §5.1). Erasing a block costs one unit per valid page (they
// must be copied) and benefits one unit per invalid page; blocks are scanned
// cyclically from where the previous scan stopped, and candidates are in-use
// blocks whose invalid pages outnumber their valid ones. Among the
// candidates the one with the smallest erase count wins — this is the
// dynamic wear leveling the paper notes is "already adopted in the Cleaner":
// recycling lightly-worn blocks first keeps the actively-recycled pool even.
// When no block passes the greedy test it falls back to the in-use block
// with the most invalid pages, so collection always makes progress while any
// reclaimable page exists.
//
//lint:hotpath one linear scan per garbage collection
func (c *Cleaner) GreedyVictim(state []BlockState, written, valid []int32) (int, bool) {
	best, bestErases := -1, int(^uint(0)>>1)
	fallback, fallbackInvalid := -1, 0
	for i := 0; i < c.nblocks; i++ {
		b := c.ScanPos + i
		if b >= c.nblocks {
			b -= c.nblocks
		}
		if state[b] != BlockInUse {
			continue
		}
		invalid := int(written[b]) - int(valid[b])
		if invalid > int(valid[b]) {
			if ec := c.cfg.Dev.EraseCount(b); ec < bestErases {
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
	c.ScanPos = (best + 1) % c.nblocks
	return best, true
}
