package core

import "fmt"

// GapLeveler triggers static wear leveling on the max-min erase-count gap:
// when the most-erased block has endured more than Threshold erases beyond
// the least-erased one, the block set containing the coldest block is
// recycled so its (presumably cold) data moves and the block rejoins
// circulation. This is the classic `should_level` trigger of firmware-style
// static wear levelers; unlike the paper's BET it keeps a full per-block
// erase counter array, trading RAM (Table 1's motivation) for an exact view
// of the wear spread.
//
// Like every LevelerModule it is single-goroutine, deterministic (it uses no
// randomness at all), and allocation-free on the hot path. Its events and
// episodes carry the erase-count gap as Ecnt (there is no BET, so Fcnt is 0).
type GapLeveler struct {
	bracket
	threshold float64
	wear      wearTable // blocks in cfg.Exclude are never selected nor counted into the gap
	skip      bitset    // per-set marks for sets whose recycling produced no erase
}

// NewGapLeveler constructs the max-min gap leveler; cfg.Threshold is the
// erase-count gap above which leveling runs.
func NewGapLeveler(cfg BuildConfig, cleaner Cleaner) (*GapLeveler, error) {
	b, err := newBracket(KindGap, cleaner, cfg.Blocks, cfg.K, cfg.Observer, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	if cfg.Threshold < 1 {
		return nil, fmt.Errorf("core: gap threshold T=%g must be >= 1", cfg.Threshold)
	}
	wear, err := newWearTable(cfg.Blocks, cfg.Exclude)
	if err != nil {
		return nil, err
	}
	return &GapLeveler{bracket: b, threshold: cfg.Threshold, wear: wear, skip: newBitset(b.nsets)}, nil
}

// OnErase records a block erase into the per-block counters.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (g *GapLeveler) OnErase(bindex int) {
	g.stats.Erases++
	if g.wear.record(bindex) {
		// The erase proves the set erasable again: clear any skip mark so
		// it returns to candidacy.
		g.skip.clear(bindex >> uint(g.k))
	}
}

// NeedsLeveling reports whether the erase-count gap exceeds the threshold.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (g *GapLeveler) NeedsLeveling() bool {
	return float64(g.wear.gap()) > g.threshold
}

// coldestEligible returns the least-erased block whose set is not
// skip-marked (lowest block index on ties), or false when every set is
// skip-marked.
func (g *GapLeveler) coldestEligible() (int, bool) {
	best, found := 0, false
	for b, v := range g.wear.erases {
		if g.wear.barred.has(b) || g.skip.has(b>>uint(g.k)) {
			continue
		}
		if !found || v < g.wear.erases[best] {
			best, found = b, true
		}
	}
	return best, found
}

// Level recycles coldest block sets until the gap closes to the threshold.
// Sets whose recycling produces no accountable erase are skip-marked and
// counted in Stats.SetsSkipped, exactly like the SW Leveler's unerasable
// sets; a skip mark clears as soon as any block of the set is erased again.
// Level is idempotent under reentrancy.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (g *GapLeveler) Level() error {
	if !g.enter() {
		return nil
	}
	var err error
	for guard := 0; guard < 2*g.nsets && g.NeedsLeveling(); guard++ {
		c, ok := g.coldestEligible()
		if !ok {
			break // every set skip-marked; nothing erasable to move
		}
		if float64(g.wear.max-g.wear.erases[c]) <= g.threshold {
			break // the coldest candidate is not cold enough to matter
		}
		f := c >> uint(g.k)
		before := g.wear.sum(g.setRange(f))
		if err = g.recycle(f, 0, g.wear.gap(), 0); err != nil {
			break
		}
		if g.wear.sum(g.setRange(f)) == before {
			g.skip.set(f)
			g.skipped()
		}
	}
	return g.leave(err, g.wear.gap(), 0)
}
