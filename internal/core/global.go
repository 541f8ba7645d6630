package core

import (
	"errors"
	"fmt"

	"flashswl/internal/wire"
)

// GlobalLeveler evens wear ACROSS the banks (member chips) of a multi-chip
// device, the cross-bank imbalance problem of distributed wear leveling:
// even when every chip levels itself internally, a hot logical region pins
// its chip at a higher erase rate than its neighbors. The module deliberately
// works from approximate global knowledge — one coarse erase counter per
// bank, never a per-block scan — which is what a controller spanning
// channels can afford to keep coherent. When the mean per-block erase count
// of the hottest bank exceeds the coldest bank's by more than Threshold, the
// leveler recycles block sets that touch the coldest bank, migrating their
// (presumably cold) data into the write frontier and pulling the cold bank's
// erase rate up until the spread closes.
//
// Bank shape follows the hosting device: a striped array interleaves global
// block b onto chip b%Chips, a concatenated one maps contiguous runs. On a
// single-chip device the module still operates, partitioning the block space
// into defaultGlobalBanks virtual banks — useful as an arena entrant and for
// the conformance suite.
//
// Like every LevelerModule it is single-goroutine, deterministic (it uses no
// randomness), and allocation-free on the hot path.
type GlobalLeveler struct {
	bracket
	banks         int
	interleave    bool
	blocksPerBank int // concat layout divisor (ceil); unused when interleaved
	threshold     float64

	bankErases []uint64 // coarse per-bank erase counters — the only wear knowledge
	bankBlocks []int32  // blocks per bank, fixed at construction
	cursor     []int32  // per-bank cyclic scan position over set indices
	skip       bitset   // per-set marks for sets whose recycling produced no erase
}

// defaultGlobalBanks is the virtual bank count the global leveler falls back
// to when the hosting device is a single chip (BuildConfig.Chips <= 1).
const defaultGlobalBanks = 4

// NewGlobalLeveler constructs the cross-bank global leveler. cfg.Threshold is
// the mean per-block erase-count gap between the hottest and coldest bank
// above which leveling runs; cfg.Chips is the number of banks the block space
// divides into (values <= 1 fall back to defaultGlobalBanks virtual banks,
// clamped to the block count); cfg.Interleave mirrors a striped array, global
// block b belonging to bank b%Chips, where false mirrors a concatenated one
// with contiguous runs of ceil(Blocks/Chips) blocks per bank. Its events and
// episodes carry the rounded per-bank mean erase gap as Ecnt (there is no
// BET, so Fcnt is 0).
func NewGlobalLeveler(cfg BuildConfig, cleaner Cleaner) (*GlobalLeveler, error) {
	b, err := newBracket(KindGlobal, cleaner, cfg.Blocks, cfg.K, cfg.Observer, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	if cfg.Threshold < 1 {
		return nil, fmt.Errorf("core: global threshold T=%g must be >= 1", cfg.Threshold)
	}
	if len(cfg.Exclude) > 0 {
		return nil, errors.New("core: the global leveler does not support exclusions")
	}
	banks := cfg.Chips
	if banks <= 1 {
		banks = defaultGlobalBanks
	}
	if banks > cfg.Blocks {
		banks = cfg.Blocks
	}
	g := &GlobalLeveler{
		bracket: b,
		banks:   banks, interleave: cfg.Interleave,
		blocksPerBank: (cfg.Blocks + banks - 1) / banks,
		threshold:     cfg.Threshold,
		bankErases:    make([]uint64, banks),
		bankBlocks:    make([]int32, banks),
		cursor:        make([]int32, banks),
		skip:          newBitset(b.nsets),
	}
	for blk := 0; blk < g.blocks; blk++ {
		g.bankBlocks[g.bankOf(blk)]++
	}
	return g, nil
}

// bankOf maps a global block to its bank under the configured layout.
func (g *GlobalLeveler) bankOf(b int) int {
	if g.interleave {
		return b % g.banks
	}
	return b / g.blocksPerBank
}

// bankMean is a bank's mean per-block erase count.
func (g *GlobalLeveler) bankMean(bank int) float64 {
	return float64(g.bankErases[bank]) / float64(g.bankBlocks[bank])
}

// spread returns the current hottest-minus-coldest mean erase gap and the
// coldest bank's index (lowest index on ties).
func (g *GlobalLeveler) spread() (gap float64, coldest int) {
	first := true
	var minAvg, maxAvg float64
	for bank := 0; bank < g.banks; bank++ {
		if g.bankBlocks[bank] == 0 {
			continue
		}
		avg := g.bankMean(bank)
		if first {
			minAvg, maxAvg, coldest = avg, avg, bank
			first = false
			continue
		}
		if avg < minAvg {
			minAvg, coldest = avg, bank
		}
		if avg > maxAvg {
			maxAvg = avg
		}
	}
	return maxAvg - minAvg, coldest
}

// OnErase records a block erase into its bank's coarse counter.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (g *GlobalLeveler) OnErase(bindex int) {
	g.stats.Erases++
	if bindex < 0 || bindex >= g.blocks {
		return
	}
	g.bankErases[g.bankOf(bindex)]++
	// The erase proves the set erasable again: clear any skip mark so it
	// returns to candidacy.
	g.skip.clear(bindex >> uint(g.k))
}

// NeedsLeveling reports whether the cross-bank mean erase gap exceeds the
// threshold.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (g *GlobalLeveler) NeedsLeveling() bool {
	gap, _ := g.spread()
	return gap > g.threshold
}

// setServesBank reports whether any block of set f lives on the bank. Under
// concatenation a set is a contiguous run inside (at most two) banks; under
// interleaving a set of 2^k consecutive blocks spans up to 2^k banks, so for
// k with 2^k >= banks every set reaches every bank — which is exactly why a
// striped recycle always pulls the cold chip along.
func (g *GlobalLeveler) setServesBank(f, bank int) bool {
	for b, hi := g.setRange(f); b < hi; b++ {
		if g.bankOf(b) == bank {
			return true
		}
	}
	return false
}

// nextSet cyclically scans from the bank's cursor for the next un-skipped
// set with a block on the bank, advancing the cursor past the pick. It
// returns false when no candidate remains.
func (g *GlobalLeveler) nextSet(bank int) (int, bool) {
	start := int(g.cursor[bank])
	for j := 0; j < g.nsets; j++ {
		f := (start + j) % g.nsets
		if g.skip.has(f) || !g.setServesBank(f, bank) {
			continue
		}
		g.cursor[bank] = int32((f + 1) % g.nsets)
		return f, true
	}
	return 0, false
}

// Level recycles block sets touching the coldest bank until the cross-bank
// spread closes to the threshold. Sets whose recycling produces no
// accountable erase are skip-marked and counted in Stats.SetsSkipped, like
// the SW Leveler's unerasable sets; a skip mark clears as soon as any block
// of the set is erased again. Level is idempotent under reentrancy.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (g *GlobalLeveler) Level() error {
	if !g.enter() {
		return nil
	}
	var err error
	for guard := 0; guard < 2*g.nsets; guard++ {
		gap, coldest := g.spread()
		if gap <= g.threshold {
			break
		}
		f, ok := g.nextSet(coldest)
		if !ok {
			break // nothing erasable touches the coldest bank
		}
		before := g.stats.Erases
		if err = g.recycle(f, 0, int64(gap), 0); err != nil {
			break
		}
		if g.stats.Erases == before {
			g.skip.set(f)
			g.skipped()
		}
	}
	gap, _ := g.spread()
	return g.leave(err, int64(gap), 0)
}

// ExportState serializes the global leveler's full dynamic state.
func (g *GlobalLeveler) ExportState() []byte {
	w := wire.NewWriter()
	g.exportHeader(w)
	w.U32(uint32(g.banks))
	w.Bool(g.interleave)
	exportStats(w, g.stats)
	w.U64s(g.bankErases)
	w.I32s(g.cursor)
	w.U64s(g.skip)
	return w.Bytes()
}

// ImportState restores state exported from an identically configured global
// leveler. On any mismatch or corruption the leveler is left unchanged.
func (g *GlobalLeveler) ImportState(data []byte) error {
	r := wire.NewReader(data)
	if err := g.importHeader(r); err != nil {
		return err
	}
	banks, interleave := int(r.U32()), r.Bool()
	stats := importStats(r)
	bankErases := r.U64s()
	cursor := r.I32s()
	skip := r.U64s()
	if err := r.Close(); err != nil {
		return fmt.Errorf("core: global leveler state: %w", err)
	}
	if banks != g.banks || interleave != g.interleave {
		return fmt.Errorf("core: global leveler state layout %d banks/interleave=%v, have %d/%v",
			banks, interleave, g.banks, g.interleave)
	}
	if len(bankErases) != len(g.bankErases) || len(cursor) != len(g.cursor) || len(skip) != len(g.skip) {
		return fmt.Errorf("core: global leveler state arrays %d/%d/%d, want %d/%d/%d",
			len(bankErases), len(cursor), len(skip),
			len(g.bankErases), len(g.cursor), len(g.skip))
	}
	for _, c := range cursor {
		if c < 0 || int(c) >= g.nsets {
			return fmt.Errorf("core: global leveler state cursor %d out of range", c)
		}
	}
	copy(g.bankErases, bankErases)
	copy(g.cursor, cursor)
	copy(g.skip, skip)
	g.stats = stats
	g.leveling = false
	return nil
}
