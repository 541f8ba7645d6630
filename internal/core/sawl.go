package core

// SAWLLeveler is a self-adaptive threshold wrapper over the paper's SW
// Leveler, after the tuning idea of "SAWL: A Self-adaptive Wear-leveling
// NVM Scheme" (PAPERS.md): instead of running with a fixed unevenness
// threshold T, it watches the observed max-min erase-count gap and retunes
// the inner leveler's T once per device-wide erase round (every Blocks
// erases) — a wide gap means wear is skewing, so T drops and leveling grows
// eager; a narrow gap means the device is even, so T rises and the leveling
// overhead shrinks.
//
// The retuning rule is proportional: T = base · base / gap, clamped to
// [base/sawlClamp (floor 1), base·sawlClamp], where base is the configured
// threshold (the T a plain SW Leveler would run with) and doubles as the gap
// the adaptation steers toward. At gap == base the inner leveler runs exactly
// at base; at twice that it runs twice as eager. The wrapper keeps its own
// per-block erase counters (the BET deliberately forgets counts; adaptation
// needs them) and forwards everything else — trigger test, procedure, stats,
// BET introspection — to the inner SW Leveler, so observers and invariant
// checks see the usual event stream.
type SAWLLeveler struct {
	shape
	inner *Leveler
	wear  wearTable // excluded blocks are not counted into the gap

	baseT, minT, maxT float64
	sinceAdapt        int64 // erases since the last retuning, in [0, blocks)
}

// sawlClamp bounds how far the adapted threshold strays from the base: a
// factor of eight either way.
const sawlClamp = 8

// NewSAWLLeveler constructs the adaptive wrapper and its inner SW Leveler,
// which takes every knob but the kind from cfg exactly as the "swl" strategy
// does; cfg.Threshold is the base the adaptation is anchored to.
func NewSAWLLeveler(cfg BuildConfig, cleaner Cleaner) (*SAWLLeveler, error) {
	sh, err := newShape(KindSAWL, cleaner, cfg.Blocks, cfg.K)
	if err != nil {
		return nil, err
	}
	inner, err := NewLeveler(Config{
		Blocks: cfg.Blocks, K: cfg.K, Threshold: cfg.Threshold,
		Rand: cfg.Rand, Select: cfg.Select, Exclude: cfg.Exclude,
		Observer: cfg.Observer, Tracer: cfg.Tracer,
	}, cleaner)
	if err != nil {
		return nil, err
	}
	wear, err := newWearTable(cfg.Blocks, cfg.Exclude)
	if err != nil {
		return nil, err
	}
	s := &SAWLLeveler{
		shape: sh, inner: inner, wear: wear,
		baseT: cfg.Threshold, minT: cfg.Threshold / sawlClamp, maxT: cfg.Threshold * sawlClamp,
	}
	if s.minT < 1 {
		s.minT = 1
	}
	return s, nil
}

// adapt retunes the inner leveler's threshold from the observed gap.
func (s *SAWLLeveler) adapt() {
	t := s.maxT // an even device levels as lazily as allowed
	if gap := float64(s.wear.gap()); gap > 0 {
		t = s.baseT * s.baseT / gap
	}
	if t < s.minT {
		t = s.minT
	}
	if t > s.maxT {
		t = s.maxT
	}
	s.inner.cfg.Threshold = t
}

// BET exposes the inner leveler's Block Erasing Table.
func (s *SAWLLeveler) BET() *BET { return s.inner.BET() }

// Ecnt returns the inner leveler's per-interval erase count.
func (s *SAWLLeveler) Ecnt() int64 { return s.inner.Ecnt() }

// Unevenness returns the inner leveler's unevenness level.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (s *SAWLLeveler) Unevenness() float64 { return s.inner.Unevenness() }

// Stats returns the inner leveler's activity counters.
func (s *SAWLLeveler) Stats() Stats { return s.inner.Stats() }

// OnErase records the erase into the adaptation counters, forwards it to
// the inner leveler, and retunes the threshold when an adaptation interval
// completes.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (s *SAWLLeveler) OnErase(bindex int) {
	s.wear.record(bindex)
	s.inner.OnErase(bindex)
	s.sinceAdapt++
	if s.sinceAdapt >= int64(s.blocks) {
		s.sinceAdapt = 0
		s.adapt()
	}
}

// NeedsLeveling forwards the inner leveler's trigger test (under the
// currently adapted threshold).
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (s *SAWLLeveler) NeedsLeveling() bool { return s.inner.NeedsLeveling() }

// Level forwards to the inner leveler's SWL-Procedure.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (s *SAWLLeveler) Level() error { return s.inner.Level() }
