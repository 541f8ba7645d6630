package core

import "fmt"

// DualPoolLeveler implements a dual-pool hot/cold-swap static wear leveler
// (after Chang's dual-pool algorithm, the dynamic/static strategy split of
// the related firmware levelers): blocks live in either a hot pool
// (circulating — they absorb writes) or a cold pool (resting — they hold
// cold data). When the hottest block's erase count exceeds the cold pool's
// minimum by more than Threshold, the coldest cold block's set is recycled —
// moving its cold data onto circulating blocks — and the two swap roles:
// the cold block joins the hot pool and the hottest block retires to the
// cold pool to rest.
//
// All blocks start in the cold pool; the first trigger promotes the hottest
// into circulation, so pool membership is discovered from the workload
// rather than guessed up front. The leveler keeps a full per-block erase
// counter array and uses no randomness, so it is deterministic by
// construction.
type DualPoolLeveler struct {
	bracket
	threshold float64
	wear      wearTable // blocks in cfg.Exclude belong to neither pool
	hot       bitset    // hot-pool membership; clear = cold pool

	hotCount     int   // eligible blocks in the hot pool
	coldCount    int   // eligible blocks in the cold pool
	coldMin      int32 // min erase count over the cold pool
	coldMinCount int   // cold blocks sitting at coldMin
}

// NewDualPoolLeveler constructs the dual-pool leveler; cfg.Threshold is the
// erase-count gap between the hottest block and the cold pool's minimum above
// which a swap triggers. Its events and episodes carry that gap as Ecnt and
// the hot-pool population as Fcnt.
func NewDualPoolLeveler(cfg BuildConfig, cleaner Cleaner) (*DualPoolLeveler, error) {
	b, err := newBracket(KindDualPool, cleaner, cfg.Blocks, cfg.K, cfg.Observer, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	if cfg.Threshold < 1 {
		return nil, fmt.Errorf("core: dual-pool threshold T=%g must be >= 1", cfg.Threshold)
	}
	wear, err := newWearTable(cfg.Blocks, cfg.Exclude)
	if err != nil {
		return nil, err
	}
	return &DualPoolLeveler{
		bracket: b, threshold: cfg.Threshold, wear: wear, hot: newBitset(cfg.Blocks),
		coldCount: wear.eligible, coldMinCount: wear.eligible,
	}, nil
}

// inColdPool reports whether block b is eligible and resting.
func (d *DualPoolLeveler) inColdPool(b int) bool { return !d.wear.barred.has(b) && !d.hot.has(b) }

// recomputeColdMin rescans the cold pool for its minimum erase count and
// multiplicity; with an empty cold pool both reset to zero.
func (d *DualPoolLeveler) recomputeColdMin() {
	d.coldMin, d.coldMinCount = d.wear.minOutside(d.hot)
}

// promote moves a cold block into the hot pool.
func (d *DualPoolLeveler) promote(b int) {
	if !d.inColdPool(b) {
		return
	}
	d.hot.set(b)
	d.hotCount++
	d.coldCount--
	if d.wear.erases[b] == d.coldMin {
		d.coldMinCount--
		if d.coldMinCount == 0 {
			d.recomputeColdMin()
		}
	}
}

// demote parks a hot block in the cold pool.
func (d *DualPoolLeveler) demote(b int) {
	if !d.hot.has(b) {
		return
	}
	d.hot.clear(b)
	d.hotCount--
	d.coldCount++
	switch v := d.wear.erases[b]; {
	case d.coldMinCount == 0 || v < d.coldMin:
		d.coldMin, d.coldMinCount = v, 1
	case v == d.coldMin:
		d.coldMinCount++
	}
}

// hottest returns the most-erased eligible block (lowest index on ties).
func (d *DualPoolLeveler) hottest() int {
	best := -1
	for b, v := range d.wear.erases {
		if d.wear.barred.has(b) {
			continue
		}
		if best < 0 || v > d.wear.erases[best] {
			best = b
		}
	}
	return best
}

// coldestCold returns the least-erased cold-pool block (lowest index on
// ties), or false with an empty cold pool.
func (d *DualPoolLeveler) coldestCold() (int, bool) {
	best, found := 0, false
	for b, v := range d.wear.erases {
		if !d.inColdPool(b) {
			continue
		}
		if !found || v < d.wear.erases[best] {
			best, found = b, true
		}
	}
	return best, found
}

// gap returns the hottest-block versus cold-pool-minimum erase-count spread.
func (d *DualPoolLeveler) gap() int64 { return int64(d.wear.max - d.coldMin) }

// OnErase records a block erase into the per-block counters.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (d *DualPoolLeveler) OnErase(bindex int) {
	d.stats.Erases++
	if !d.wear.record(bindex) {
		return
	}
	if !d.hot.has(bindex) && d.wear.erases[bindex]-1 == d.coldMin {
		d.coldMinCount--
		if d.coldMinCount == 0 {
			d.recomputeColdMin()
		}
	}
}

// NeedsLeveling reports whether the hottest block has outworn the cold
// pool's minimum by more than the threshold.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (d *DualPoolLeveler) NeedsLeveling() bool {
	return d.coldCount > 0 && float64(d.gap()) > d.threshold
}

// Level swaps pool roles until the gap closes: recycle the coldest cold
// block's set (its cold data moves onto circulating blocks), promote that
// block into the hot pool, and retire the hottest block to the cold pool. A
// set whose recycling produces no accountable erase is counted in
// Stats.SetsSkipped; its block is promoted anyway so the cold pool is never
// wedged on unerasable blocks. Level is idempotent under reentrancy.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (d *DualPoolLeveler) Level() error {
	if !d.enter() {
		return nil
	}
	var err error
	for guard := 0; guard < 2*d.nsets && d.NeedsLeveling(); guard++ {
		c, ok := d.coldestCold()
		if !ok {
			break
		}
		h := d.hottest()
		f := c >> uint(d.k)
		before := d.wear.sum(d.setRange(f))
		if err = d.recycle(f, 0, d.gap(), d.hotCount); err != nil {
			break
		}
		d.promote(c)
		if d.wear.sum(d.setRange(f)) == before {
			d.skipped() // unerasable: out of cold candidacy, but no swap
		} else if h >= 0 && h != c && d.hotCount > 1 {
			d.demote(h) // the hottest block rests
		}
	}
	return d.leave(err, d.gap(), d.hotCount)
}
