package core

import (
	"fmt"

	"flashswl/internal/obs"
)

// PeriodicLeveler is a comparison baseline modeled on the static wear
// leveling shipped in TrueFFS-era products (the paper's reference [16], and
// in spirit reference [10]): every Period block erases, force the garbage
// collection of one uniformly random block set, with no erase-history
// bookkeeping at all. It drives the same Cleaner interface as the SW
// Leveler, so the two designs can be compared head-to-head; the BET-based
// design should win because it never wastes a forced recycle on a block set
// that is already circulating.
type PeriodicLeveler struct {
	bracket
	period  int64
	rand    *SplitMix64
	pending int64 // erases since the last forced recycle
}

// PeriodicConfig parameterizes a PeriodicLeveler.
type PeriodicConfig struct {
	// Blocks is the number of physical blocks.
	Blocks int
	// K is the block-set granularity, as for the SW Leveler.
	K int
	// Period is the number of erases between forced recycles.
	Period int64
	// Rand supplies randomness. When nil a private fixed-seed generator
	// is used, keeping unseeded construction reproducible (see
	// Config.Rand on the SW Leveler). The serializable type lets
	// checkpoint/resume capture the generator position.
	Rand *SplitMix64
	// Observer and Tracer, if non-nil, receive the same leveling events and
	// swl_episode/set_select spans as Config's do for the SW Leveler; Ecnt
	// carries the erases still pending toward the next period (there is no
	// BET, so Fcnt is 0). Leave nil for zero overhead.
	Observer obs.EventSink
	Tracer   *obs.Tracer
}

// NewPeriodicLeveler constructs the baseline leveler.
func NewPeriodicLeveler(cfg PeriodicConfig, cleaner Cleaner) (*PeriodicLeveler, error) {
	b, err := newBracket(KindPeriodic, cleaner, cfg.Blocks, cfg.K, cfg.Observer, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	if cfg.Period < 1 {
		return nil, fmt.Errorf("core: period %d must be at least 1", cfg.Period)
	}
	r := cfg.Rand
	if r == nil {
		r = NewSplitMix64(defaultRandSeed)
	}
	return &PeriodicLeveler{bracket: b, period: cfg.Period, rand: r}, nil
}

// OnErase counts an erase toward the period.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (p *PeriodicLeveler) OnErase(bindex int) {
	p.pending++
	p.stats.Erases++
}

// NeedsLeveling reports whether a period has elapsed.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (p *PeriodicLeveler) NeedsLeveling() bool { return p.pending >= p.period }

// Level forces the recycle of one random block set per period elapsed
// before the call. The round count is fixed at entry: erases caused by the
// forced recycles themselves accrue to the next invocation, so a period
// smaller than a recycle's own erase cost cannot spin the loop forever.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (p *PeriodicLeveler) Level() error {
	if !p.enter() {
		return nil
	}
	rounds := p.pending / p.period
	p.pending -= rounds * p.period
	var err error
	for ; rounds > 0 && err == nil; rounds-- {
		err = p.recycle(p.rand.Intn(p.nsets), 0, p.pending, 0)
	}
	return p.leave(err, p.pending, 0)
}
