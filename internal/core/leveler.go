package core

import (
	"errors"
	"fmt"

	"flashswl/internal/obs"
)

// Cleaner is the view the SW Leveler has of the hosting Flash Translation
// Layer driver's garbage collector. EraseBlockSet must garbage-collect every
// block of block set findex under mapping mode k — copy any live data
// elsewhere and erase the blocks — and must report each erase back through
// Leveler.OnErase (the Cleaner already does this for its own erases).
type Cleaner interface {
	EraseBlockSet(findex, k int) error
}

// SelectPolicy chooses how SWL-Procedure picks the next block set.
type SelectPolicy int

const (
	// SelectCyclic is the paper's design: scan the BET cyclically from
	// findex for the next clear flag (Algorithm 1, steps 9–10).
	SelectCyclic SelectPolicy = iota
	// SelectRandom picks a uniformly random clear flag each time. The
	// paper surmises the cyclic scan "is close to that in a random
	// selection policy in reality" (§3.3); this policy exists to test
	// that claim (see the ablation benchmarks).
	SelectRandom
)

// Config parameterizes a Leveler.
type Config struct {
	// Blocks is the number of physical blocks the BET must cover.
	Blocks int
	// K is the BET mapping mode: one flag per 2^k contiguous blocks.
	K int
	// Threshold is T, the unevenness level (ecnt/fcnt) at or above which
	// SWL-Procedure starts moving cold data. The paper evaluates
	// T ∈ {100, 400, 700, 1000}.
	Threshold float64
	// Rand, if non-nil, supplies the random flag index used when the BET
	// resets (Algorithm 1, step 6) and by SelectRandom. When nil the
	// leveler creates a private generator with a fixed seed, so unseeded
	// construction is still reproducible run-to-run; seed your own to
	// decorrelate instances. The generator's single-word state travels
	// with ExportState/ImportState, which is why this is a concrete
	// serializable type rather than an opaque closure.
	Rand *SplitMix64
	// Select chooses the block-set selection policy. The zero value is
	// the paper's cyclic scan.
	Select SelectPolicy
	// Exclude lists blocks outside wear leveling's reach — reserved
	// system blocks (for example the BET's own snapshot blocks) that the
	// Cleaner will never erase. Block sets consisting entirely of
	// excluded blocks have their flags pre-set at the start of every
	// resetting interval, so the cyclic scan never waits on a flag that
	// can never be set.
	Exclude []int
	// Observer, if non-nil, receives an EvLevelerTriggered event at every
	// SWL-Procedure decision point (immediately before EraseBlockSet,
	// carrying the selected flag index, the scan distance, and the
	// ecnt/fcnt state it acted on), an EvBETReset event when a resetting
	// interval completes, and an EvEpisodeBegin/EvEpisodeEnd pair spanning
	// each invocation of SWL-Procedure that did any work — recycled block
	// sets, skipped unerasable ones, or completed a resetting interval
	// (obs.EpisodeBuilder assembles the pair plus the events between them
	// into one episode record). Leave nil for zero overhead.
	Observer obs.EventSink
	// Tracer, if non-nil, records causal spans: each acting SWL-Procedure
	// invocation opens a swl_episode span with a scan span per block-set
	// selection and a set_select span per forced recycling, under which the
	// Cleaner's own gc_merge/live_copy/erase spans nest. Leave nil for zero
	// overhead.
	Tracer *obs.Tracer
}

// defaultRandSeed seeds the private generator a leveler falls back to when
// Config.Rand is nil. The seed is fixed on purpose: the simulation stack
// promises bit-identical reruns (golden CSVs, figure reproductions), so the
// default must never touch the process-global math/rand source, which has
// been randomly seeded since Go 1.20.
const defaultRandSeed = 0x535754C // "SWL"-flavored, arbitrary but frozen

// Stats counts leveler activity since construction. Every strategy counts
// through the shared episode bracket, so the fields mean the same thing
// whichever leveler is attached.
type Stats struct {
	// Erases is the total number of erases observed (across all resetting
	// intervals, unlike ecnt which resets).
	Erases int64
	// Triggered counts invocations of the leveling procedure in which the
	// Cleaner accepted at least one block set, whether or not the invocation
	// went on to fail and whether or not that set turned out skippable.
	Triggered int64
	// SetsRecycled counts block sets Cleaner.EraseBlockSet accepted
	// (returned nil for), the skipped ones included.
	SetsRecycled int64
	// SetsSkipped counts the subset of SetsRecycled whose recycling produced
	// no erase the leveler could account for — every block retired or
	// otherwise unerasable — and which the strategy therefore marked (the SW
	// Leveler sets the BET flag directly) so its selection moves past them.
	SetsSkipped int64
	// Resets counts BET resetting intervals completed.
	Resets int64
}

// Leveler is the SW Leveler of Figure 1: the BET plus the two procedures
// SWL-Procedure (Level) and SWL-BETUpdate (OnErase). It is driven entirely
// by the hosting system: the Cleaner calls OnErase for every block erase,
// and some trigger — a timer, the Allocator, or the Cleaner — calls Level
// periodically.
type Leveler struct {
	bracket
	cfg    Config
	bet    *BET
	preset []int // set indexes pre-flagged every interval (all-excluded)
	ecnt   int64
	findex int
	rand   *SplitMix64
}

// NewLeveler constructs a leveler. The Cleaner is required; the threshold
// must be at least 1 (an unevenness level below 1 is impossible, since every
// erase that sets a flag also counts toward ecnt).
func NewLeveler(cfg Config, cleaner Cleaner) (*Leveler, error) {
	b, err := newBracket(KindSW, cleaner, cfg.Blocks, cfg.K, cfg.Observer, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	if cfg.Threshold < 1 {
		return nil, fmt.Errorf("core: threshold T=%g must be >= 1", cfg.Threshold)
	}
	r := cfg.Rand
	if r == nil {
		r = NewSplitMix64(defaultRandSeed)
	}
	l := &Leveler{bracket: b, cfg: cfg, bet: NewBET(cfg.Blocks, cfg.K), rand: r}
	if len(cfg.Exclude) > 0 {
		excluded := make(map[int]bool, len(cfg.Exclude))
		for _, b := range cfg.Exclude {
			if b < 0 || b >= cfg.Blocks {
				return nil, fmt.Errorf("core: excluded block %d out of range", b)
			}
			excluded[b] = true
		}
		for f := 0; f < l.bet.Size(); f++ {
			lo, hi := l.bet.BlockRange(f)
			all := true
			for b := lo; b < hi; b++ {
				if !excluded[b] {
					all = false
					break
				}
			}
			if all {
				l.preset = append(l.preset, f)
			}
		}
		if len(l.preset) >= l.bet.Size() {
			return nil, errors.New("core: every block set is excluded")
		}
	}
	l.applyPresets()
	return l, nil
}

// applyPresets flags the block sets wear leveling can never reach.
func (l *Leveler) applyPresets() {
	for _, f := range l.preset {
		l.bet.Set(f)
	}
}

// BET exposes the Block Erasing Table, chiefly for persistence and tests.
func (l *Leveler) BET() *BET { return l.bet }

// Ecnt returns the number of erases in the current resetting interval.
func (l *Leveler) Ecnt() int64 { return l.ecnt }

// Findex returns the current cyclic scan position.
func (l *Leveler) Findex() int { return l.findex }

// organicFcnt returns the number of flags set by actual erase activity (or
// skip-marking) this resetting interval, excluding the preset flags of
// all-excluded block sets. Presets are set unconditionally at the start of
// every interval, carry no wear information, and — counted into the
// unevenness denominator — would permanently deflate the ratio on devices
// with reserved blocks, delaying triggering.
func (l *Leveler) organicFcnt() int {
	return l.bet.Fcnt() - len(l.preset)
}

// Unevenness returns ecnt/fcnt, the paper's unevenness level, with fcnt
// counting only organically set flags (preset all-excluded sets are not wear
// evidence; see organicFcnt). A high value means many erases concentrated on
// few block sets. It is 0 while no organic flag is set.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (l *Leveler) Unevenness() float64 {
	of := l.organicFcnt()
	if of <= 0 {
		return 0
	}
	return float64(l.ecnt) / float64(of)
}

// OnErase implements SWL-BETUpdate (Algorithm 2): it must be invoked by the
// Cleaner whenever any block is erased, including erases the leveler itself
// requested through EraseBlockSet.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (l *Leveler) OnErase(bindex int) {
	l.ecnt++
	l.stats.Erases++
	l.bet.SetBlock(bindex)
}

// NeedsLeveling reports whether the unevenness level has reached the
// threshold, i.e. whether Level would act. Hosts can use it as a cheap
// trigger test.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (l *Leveler) NeedsLeveling() bool {
	return l.organicFcnt() > 0 && l.Unevenness() >= l.cfg.Threshold
}

// Level implements SWL-Procedure (Algorithm 1). While the unevenness level
// ecnt/fcnt is at or above the threshold T it selects the next block set
// with a clear flag (cyclic scan from findex) and asks the Cleaner to
// garbage-collect it; the resulting erases flow back through OnErase,
// raising fcnt and lowering the unevenness until the loop exits. When every
// flag is set, the BET and counters reset, findex restarts at a random
// position, and the call returns to begin the next resetting interval.
//
// Level is idempotent under reentrancy: if the Cleaner's garbage collection
// somehow re-triggers Level, the nested call returns immediately.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (l *Leveler) Level() error {
	if !l.enter() {
		return nil
	}
	err := l.procedure()
	return l.leave(err, l.ecnt, l.bet.Fcnt())
}

// procedure is the body of Algorithm 1, run inside the episode bracket; a
// Cleaner failure comes back unwrapped.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (l *Leveler) procedure() error {
	if l.organicFcnt() <= 0 { // step 1: just reset, nothing to compare against
		return nil
	}
	for l.Unevenness() >= l.cfg.Threshold { // step 2
		l.begin(l.ecnt, l.bet.Fcnt())
		if l.bet.Full() { // step 3
			l.ecnt = 0                           // step 4 (fcnt reset with the BET, step 5)
			l.findex = l.rand.Intn(l.bet.Size()) // step 6
			l.bet.Reset()                        // step 7
			l.applyPresets()
			l.stats.Resets++
			if l.observer != nil {
				l.observer.Observe(obs.Event{
					Kind: obs.EvBETReset, Block: -1, Page: -1,
					Findex: l.findex, Fcnt: l.bet.Fcnt(),
				})
			}
			break // step 8: start the next resetting interval
		}
		start := l.findex
		scanSpan := l.tracer.Begin(obs.SpanScan, -1, 0)
		var next int
		var ok bool
		if l.cfg.Select == SelectRandom {
			// Uniform over the clear flags: draw a rank, not a start
			// position. (Picking a random start and scanning to the next
			// clear flag would weight each clear flag by the run of set
			// flags preceding it.)
			next, ok = l.bet.NthClear(l.rand.Intn(l.bet.Size() - l.bet.Fcnt()))
		} else {
			next, ok = l.bet.NextClear(start) // steps 9–10
		}
		scan := 0 // random selection performs no scan
		if ok && l.cfg.Select == SelectCyclic {
			scan = next - start
			if scan < 0 {
				scan += l.bet.Size()
			}
		}
		l.tracer.EndArg(scanSpan, int64(scan))
		if !ok {
			break // raced to full; handled at the top of the next iteration
		}
		l.findex = next
		before := l.bet.Fcnt()
		if err := l.recycle(l.findex, scan, l.ecnt, before); err != nil { // step 11
			return err
		}
		if l.bet.Fcnt() == before {
			// Recycling produced no erase this interval could account for:
			// every block of the set is retired, reserved, or otherwise
			// unerasable. Flag the set directly so the scan moves past it —
			// each loop iteration now raises fcnt one way or the other, so
			// the BET always reaches Full and the interval resets.
			l.bet.Set(l.findex)
			l.skipped()
		}
		l.findex = (l.findex + 1) % l.bet.Size() // step 12
	}
	return nil
}
