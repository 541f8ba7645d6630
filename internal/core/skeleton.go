package core

import (
	"fmt"

	"flashswl/internal/obs"
)

// The leveler skeleton: what every registered strategy embeds so that it
// keeps only its trigger test, its set-selection policy, and its "did that
// recycle produce an accountable erase" test. shape is the validated device
// view (state.go builds every state record's header from it); bracket is the
// episode bracket around Cleaner.EraseBlockSet; wearTable (wear.go) is the
// exact per-block erase history the counter-keeping strategies share.

// shape is a strategy's identity and device view: the kind byte of its state
// records, the block count, the mapping mode k, and the block-set count they
// imply.
type shape struct {
	kind   LevelerKind
	blocks int
	k      int
	nsets  int
}

// newShape is the one constructor check every strategy shares.
func newShape(kind LevelerKind, cleaner Cleaner, blocks, k int) (shape, error) {
	if cleaner == nil {
		return shape{}, fmt.Errorf("core: %s leveler needs a cleaner", kind)
	}
	if blocks <= 0 {
		return shape{}, fmt.Errorf("core: %s leveler needs a positive block count, got %d", kind, blocks)
	}
	if k < 0 || k > 30 {
		return shape{}, fmt.Errorf("core: mapping mode k=%d out of range", k)
	}
	return shape{kind: kind, blocks: blocks, k: k, nsets: setCount(blocks, k)}, nil
}

// setCount is the number of block sets of 2^k blocks covering the device;
// the last one may be partial.
func setCount(blocks, k int) int { return (blocks + 1<<uint(k) - 1) >> uint(k) }

// Kind identifies the strategy's state records.
func (s *shape) Kind() LevelerKind { return s.kind }

// setRange returns the half-open block range [lo, hi) of block set f; the
// last set may be partial.
func (s *shape) setRange(f int) (lo, hi int) {
	lo = f << uint(s.k)
	hi = lo + 1<<uint(s.k)
	if hi > s.blocks {
		hi = s.blocks
	}
	return lo, hi
}

// bracket is the episode bracket: everything one invocation of a leveling
// procedure does around its calls into the Cleaner, identical for every
// strategy. It owns the reentrancy guard; the lazily opened EvEpisodeBegin
// event and swl_episode span, and their close on every exit including a
// Cleaner failure; the EvLevelerTriggered event and set_select span around
// each Cleaner.EraseBlockSet; the SetsRecycled/SetsSkipped/Triggered
// accounting (see Stats); and the wrap of the Cleaner's error. A strategy's
// Level is
//
//	if !b.enter() { return nil }
//	err := <its own loop: trigger test, pick a set, b.recycle, b.skipped>
//	return b.leave(err, ecnt, fcnt)
//
// so the loop is the strategy's own code and nothing here takes a callback.
type bracket struct {
	shape
	cleaner  Cleaner
	observer obs.EventSink
	tracer   *obs.Tracer
	stats    Stats

	leveling      bool       // inside enter/leave: nested Level calls are no-ops
	open          bool       // the episode's begin event and span are out
	span          obs.SpanID // the open swl_episode span
	sets0, skips0 int64      // stats at episode open, for the end event's deltas
	set           int        // the set last handed to the Cleaner, for the error wrap
}

func newBracket(kind LevelerKind, cleaner Cleaner, blocks, k int, observer obs.EventSink, tracer *obs.Tracer) (bracket, error) {
	s, err := newShape(kind, cleaner, blocks, k)
	return bracket{shape: s, cleaner: cleaner, observer: observer, tracer: tracer}, err
}

// Stats returns a snapshot of the activity counters.
func (b *bracket) Stats() Stats { return b.stats }

// enter takes the reentrancy guard, reporting false — the caller returns at
// once — when a Level is already running further up the stack (the Cleaner's
// garbage collection re-triggered it).
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (b *bracket) enter() bool {
	if b.leveling {
		return false
	}
	b.leveling = true
	return true
}

// begin opens the episode if this invocation has not opened one yet: the
// EvEpisodeBegin event and the swl_episode span, both carrying the strategy's
// wear state (ecnt, fcnt) at the moment it decided to act. recycle calls it,
// so only a strategy that does episode work before its first recycle (the SW
// Leveler's scan span and BET reset) calls it directly.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (b *bracket) begin(ecnt int64, fcnt int) {
	if b.open {
		return
	}
	b.open = true
	b.sets0, b.skips0 = b.stats.SetsRecycled, b.stats.SetsSkipped
	obs.BeginEpisode(b.observer, ecnt, fcnt)
	b.span = b.tracer.Begin(obs.SpanSWLEpisode, -1, 0)
}

// recycle forces the garbage collection of block set f: the decision-point
// event (with the scan distance that found the set and the wear state acted
// on), then Cleaner.EraseBlockSet inside a set_select span. A set the Cleaner
// accepted counts in SetsRecycled; its error comes back unwrapped, for leave.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (b *bracket) recycle(f, scan int, ecnt int64, fcnt int) error {
	b.begin(ecnt, fcnt)
	if b.observer != nil {
		b.observer.Observe(obs.Event{
			Kind: obs.EvLevelerTriggered, Block: -1, Page: -1,
			Findex: f, Scan: scan, Ecnt: ecnt, Fcnt: fcnt,
		})
	}
	b.set = f
	span := b.tracer.Begin(obs.SpanSetSelect, -1, int64(f))
	err := b.cleaner.EraseBlockSet(f, b.k)
	b.tracer.End(span)
	if err == nil {
		b.stats.SetsRecycled++
	}
	return err
}

// skipped records that the set just recycled produced no erase the strategy
// could account for.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (b *bracket) skipped() { b.stats.SetsSkipped++ }

// leave closes the invocation: the episode, if one opened, ends with the
// strategy's wear state at exit and the set counts since begin — after a
// Cleaner failure too, so a partial episode is accounted like a whole one —
// the invocation counts as Triggered if the Cleaner accepted any set, the
// guard drops, and a Cleaner error is wrapped with the set it struck.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (b *bracket) leave(err error, ecnt int64, fcnt int) error {
	if b.open {
		b.open = false
		obs.EndEpisode(b.observer, ecnt, fcnt,
			int(b.stats.SetsRecycled-b.sets0), int(b.stats.SetsSkipped-b.skips0))
		b.tracer.End(b.span)
		if b.stats.SetsRecycled > b.sets0 {
			b.stats.Triggered++
		}
	}
	b.leveling = false
	if err != nil {
		return fmt.Errorf("core: %s wear leveling of block set %d: %w", b.kind, b.set, err)
	}
	return nil
}
