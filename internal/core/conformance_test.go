package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"flashswl/internal/obs"
)

// Leveler conformance suite: every registered LevelerModule inherits these
// contract tests — determinism under a fixed seed, reentrancy as a no-op,
// state export/import roundtripping bit-for-bit, kind-byte discipline, one
// episode account (events, spans and Stats agreeing, partial episodes
// included), and zero allocations on the hot path with no observer — so
// arena entrants get the harness's assumptions checked for free. Ranging
// over LevelerSpecs is also the check that every registered implementation
// satisfies LevelerModule.

const (
	confBlocks = 64
	confK      = 1
)

// confConfig is the shared build configuration; each call returns a fresh
// RNG so instances under comparison are decorrelated only by their drives.
func confConfig(seed uint64) BuildConfig {
	return BuildConfig{
		Blocks:    confBlocks,
		K:         confK,
		Threshold: 6,
		Period:    48,
		Rand:      NewSplitMix64(seed),
	}
}

// confCleaner reports one erase per block of the recycled set and records
// the call sequence; an optional reenter hook fires mid-recycle, and sets an
// optional dead predicate names are accepted without a single erase, like
// sets whose every block has been retired.
type confCleaner struct {
	report  func(int)
	calls   [][2]int
	reenter func()
	dead    func(findex int) bool
}

func (c *confCleaner) EraseBlockSet(findex, k int) error {
	c.calls = append(c.calls, [2]int{findex, k})
	if c.reenter != nil {
		c.reenter()
	}
	if c.dead != nil && c.dead(findex) {
		return nil
	}
	lo := findex << uint(k)
	hi := lo + 1<<uint(k)
	if hi > confBlocks {
		hi = confBlocks
	}
	for b := lo; b < hi; b++ {
		c.report(b)
	}
	return nil
}

// drive feeds a skewed erase workload — wear concentrated on a few blocks
// with occasional strays — calling Level after every erase, as the harness
// does.
func drive(t *testing.T, lv LevelerModule, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		b := i % 8
		if i%5 == 0 {
			b = (i * 13) % confBlocks
		}
		lv.OnErase(b)
		if err := lv.Level(); err != nil {
			t.Fatalf("Level at erase %d: %v", i, err)
		}
	}
}

func buildModule(t *testing.T, spec LevelerSpec, seed uint64) (LevelerModule, *confCleaner) {
	t.Helper()
	c := &confCleaner{}
	lv, err := spec.Build(confConfig(seed), c)
	if err != nil {
		t.Fatalf("build %q: %v", spec.Name, err)
	}
	c.report = lv.OnErase
	return lv, c
}

func TestConformanceDeterminism(t *testing.T) {
	for _, spec := range LevelerSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			a, ca := buildModule(t, spec, 7)
			b, cb := buildModule(t, spec, 7)
			drive(t, a, 0, 3000)
			drive(t, b, 0, 3000)
			if fmt.Sprint(ca.calls) != fmt.Sprint(cb.calls) {
				t.Fatalf("identical seeds and workloads diverged: %d vs %d cleaner calls", len(ca.calls), len(cb.calls))
			}
			if !bytes.Equal(a.ExportState(), b.ExportState()) {
				t.Error("identical runs exported different state")
			}
			if len(ca.calls) == 0 {
				t.Fatal("workload never triggered the leveler; the test covered nothing")
			}
			if a.Stats().Erases == 0 {
				t.Fatal("stats recorded no erases")
			}
		})
	}
}

func TestConformanceReentrancyNoop(t *testing.T) {
	for _, spec := range LevelerSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			plain, cp := buildModule(t, spec, 7)
			drive(t, plain, 0, 3000)

			nested, cn := buildModule(t, spec, 7)
			reentered := 0
			cn.reenter = func() {
				reentered++
				if err := nested.Level(); err != nil {
					t.Fatalf("reentrant Level: %v", err)
				}
				_ = nested.NeedsLeveling()
			}
			drive(t, nested, 0, 3000)
			if reentered == 0 {
				t.Fatal("cleaner never re-entered; the guard went untested")
			}
			// The nested Level must have been a pure no-op: the run is
			// indistinguishable from the plain one.
			if fmt.Sprint(cp.calls) != fmt.Sprint(cn.calls) {
				t.Error("reentrant Level changed the run")
			}
			if !bytes.Equal(plain.ExportState(), nested.ExportState()) {
				t.Error("reentrant Level changed the exported state")
			}
		})
	}
}

func TestConformanceStateRoundtrip(t *testing.T) {
	for _, spec := range LevelerSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			orig, co := buildModule(t, spec, 11)
			drive(t, orig, 0, 2500)
			snap := orig.ExportState()

			if kind, err := StateKind(snap); err != nil || kind != spec.Kind {
				t.Fatalf("StateKind = %v, %v; want %v", kind, err, spec.Kind)
			}

			restored, cr := buildModule(t, spec, 999) // seed overwritten by import where serialized
			if err := restored.ImportState(snap); err != nil {
				t.Fatalf("ImportState: %v", err)
			}
			if got := restored.ExportState(); !bytes.Equal(got, snap) {
				t.Fatalf("export → import → export is not bit-identical (%d vs %d bytes)", len(got), len(snap))
			}

			// The restored instance must continue exactly like the original.
			mark := len(co.calls)
			drive(t, orig, 2500, 5000)
			drive(t, restored, 2500, 5000)
			if fmt.Sprint(co.calls[mark:]) != fmt.Sprint(cr.calls) {
				t.Error("restored instance diverged from the original after resume")
			}
			if !bytes.Equal(orig.ExportState(), restored.ExportState()) {
				t.Error("final states diverged after resume")
			}
		})
	}
}

func TestConformanceKindMismatchRejected(t *testing.T) {
	specs := LevelerSpecs()
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			lv, _ := buildModule(t, spec, 3)
			if lv.Kind() != spec.Kind {
				t.Fatalf("Kind() = %v, registered as %v", lv.Kind(), spec.Kind)
			}
			for _, other := range specs {
				if other.Kind == spec.Kind {
					continue
				}
				foreign, _ := buildModule(t, other, 3)
				if err := lv.ImportState(foreign.ExportState()); err == nil {
					t.Errorf("%s accepted a %s state record", spec.Name, other.Name)
				}
			}
			if err := lv.ImportState([]byte{99, uint8(spec.Kind)}); err == nil {
				t.Error("unknown state version accepted")
			}
			if err := lv.ImportState(nil); err == nil {
				t.Error("empty state record accepted")
			}
		})
	}
}

// TestConformanceRejectedImportChangesNothing corrupts an exported record
// one bit at a time (and truncates it) and imports each variant into an
// instance in a different state: whenever ImportState reports an error, the
// receiver must export exactly what it did before — validation comes before
// the first store, for every field of every strategy's record.
func TestConformanceRejectedImportChangesNothing(t *testing.T) {
	for _, spec := range LevelerSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			orig, _ := buildModule(t, spec, 11)
			drive(t, orig, 0, 2500)
			snap := orig.ExportState()
			recv, _ := buildModule(t, spec, 5)
			drive(t, recv, 0, 700)
			before := recv.ExportState()
			if bytes.Equal(before, snap) {
				t.Fatal("receiver and record hold the same state; a partial import would be invisible")
			}
			rejected := 0
			try := func(what string, record []byte) {
				if err := recv.ImportState(record); err == nil {
					// An accepted variant (say, a flipped stats bit) is a
					// legitimate import; put the receiver back.
					if err := recv.ImportState(before); err != nil {
						t.Fatalf("re-importing the receiver's own state: %v", err)
					}
					return
				}
				rejected++
				if !bytes.Equal(recv.ExportState(), before) {
					t.Fatalf("%s: ImportState failed but changed the receiver", what)
				}
			}
			for i := range snap {
				for _, mask := range []byte{0x01, 0x80} {
					mut := append([]byte(nil), snap...)
					mut[i] ^= mask
					try(fmt.Sprintf("byte %d ^ %#02x", i, mask), mut)
				}
			}
			try("truncated record", snap[:len(snap)-1])
			if rejected < 8 {
				t.Fatalf("only %d corrupt variants were rejected; the test covered nothing", rejected)
			}
		})
	}
}

// allocModuleCleaner reports one erase per recycled set without bookkeeping,
// so allocation measurements see only the module's work.
type allocModuleCleaner struct{ report func(int) }

func (c *allocModuleCleaner) EraseBlockSet(findex, k int) error {
	c.report(findex << uint(k))
	return nil
}

func TestConformanceZeroAllocWithoutObserver(t *testing.T) {
	for _, spec := range LevelerSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			c := &allocModuleCleaner{}
			lv, err := spec.Build(confConfig(5), c)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			c.report = lv.OnErase
			b := 0
			allocs := testing.AllocsPerRun(5000, func() {
				b = (b + 1) % 8
				lv.OnErase(b) // concentrate wear so Level keeps acting
				if err := lv.Level(); err != nil {
					t.Fatalf("Level: %v", err)
				}
			})
			if allocs != 0 {
				t.Errorf("OnErase+Level with nil observer allocates %.2f times per op, want 0", allocs)
			}
			if lv.Stats().SetsRecycled == 0 {
				t.Fatal("leveler never acted; the measurement covered nothing")
			}
		})
	}
}

// TestConformanceEpisodeAccounting drives every entrant with an observer and
// a tracer attached and holds the three accounts of leveling activity — the
// event stream, the span tree and Stats — to one another: episodes are
// balanced begin/end pairs, the acting ones are exactly the Triggered
// invocations, their set counts sum to SetsRecycled/SetsSkipped (a quarter of
// the sets are dead, so skipped sets are in the mix and must count in both),
// and each episode is one swl_episode root span with its set_select spans
// beneath it.
func TestConformanceEpisodeAccounting(t *testing.T) {
	for _, spec := range LevelerSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			var events []obs.Event
			tracer := obs.NewTracer(1<<18, nil)
			cfg := confConfig(7)
			cfg.Observer = obs.SinkFunc(func(e obs.Event) { events = append(events, e) })
			cfg.Tracer = tracer
			c := &confCleaner{dead: func(findex int) bool { return findex%4 == 3 }}
			lv, err := spec.Build(cfg, c)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			c.report = lv.OnErase
			drive(t, lv, 0, 3000)

			st := lv.Stats()
			if st.SetsSkipped == 0 && spec.Kind != KindPeriodic { // the baseline keeps no history to skip by
				t.Error("no set was skipped; the dead sets went untested")
			}
			if st.SetsSkipped > st.SetsRecycled {
				t.Errorf("SetsSkipped %d exceeds SetsRecycled %d, which includes it", st.SetsSkipped, st.SetsRecycled)
			}
			var episodes, acting, sets, skipped, decisions int64
			open := false
			for _, e := range events {
				switch e.Kind {
				case obs.EvEpisodeBegin:
					if open {
						t.Fatal("episode_begin inside an open episode")
					}
					open = true
					episodes++
				case obs.EvEpisodeEnd:
					if !open {
						t.Fatal("episode_end without a begin")
					}
					open = false
					if e.Sets > 0 {
						acting++
					}
					sets += int64(e.Sets)
					skipped += int64(e.Skipped)
				case obs.EvLevelerTriggered:
					if !open {
						t.Fatal("leveler_triggered outside an episode")
					}
					decisions++
				}
			}
			if open {
				t.Error("last episode never ended")
			}
			if acting == 0 {
				t.Fatal("no acting episode; the test covered nothing")
			}
			if acting != st.Triggered {
				t.Errorf("acting episodes = %d, Stats.Triggered = %d", acting, st.Triggered)
			}
			if sets != st.SetsRecycled || decisions != st.SetsRecycled {
				t.Errorf("episode sets = %d, decision events = %d, Stats.SetsRecycled = %d", sets, decisions, st.SetsRecycled)
			}
			if skipped != st.SetsSkipped {
				t.Errorf("episode skips = %d, Stats.SetsSkipped = %d", skipped, st.SetsSkipped)
			}

			snap := tracer.Snapshot()
			if snap.Dropped != 0 {
				t.Fatalf("ring dropped %d spans; enlarge it", snap.Dropped)
			}
			roots := map[obs.SpanID]bool{}
			var selects int64
			for _, sp := range snap.Spans {
				switch sp.Kind {
				case obs.SpanSWLEpisode:
					if sp.Parent != 0 {
						t.Fatalf("swl_episode %d is not a root (parent %d)", sp.ID, sp.Parent)
					}
					roots[sp.ID] = true
				case obs.SpanSetSelect:
					if !roots[sp.Parent] {
						t.Fatalf("set_select %d hangs under %d, not a swl_episode", sp.ID, sp.Parent)
					}
					selects++
				}
				if sp.End == 0 {
					t.Errorf("span %d (%v) left open", sp.ID, sp.Kind)
				}
			}
			if int64(len(roots)) != episodes {
				t.Errorf("swl_episode spans = %d, episode event pairs = %d", len(roots), episodes)
			}
			if selects != st.SetsRecycled {
				t.Errorf("set_select spans = %d, Stats.SetsRecycled = %d", selects, st.SetsRecycled)
			}
		})
	}
}

// failAfterCleaner succeeds for a fixed number of EraseBlockSet calls, then
// fails, reporting erases like a real Cleaner while it succeeds.
type failAfterCleaner struct {
	report  func(int)
	succeed int
	calls   int
	err     error
}

func (c *failAfterCleaner) EraseBlockSet(findex, k int) error {
	c.calls++
	if c.calls > c.succeed {
		return c.err
	}
	lo := findex << uint(k)
	hi := lo + 1<<uint(k)
	for b := lo; b < hi; b++ {
		c.report(b)
	}
	return nil
}

// TestTriggeredCountedOnPartialEpisode: when the Cleaner fails mid-episode
// after at least one set was recycled, the invocation still counts in
// Stats.Triggered and its episode still closes with the sets it managed,
// keeping acting-episodes == Triggered under fault injection; a failure
// before any recycle counts nothing. Enough skew is piled up before the one
// Level call that every strategy wants at least two sets from it.
func TestTriggeredCountedOnPartialEpisode(t *testing.T) {
	for _, spec := range LevelerSpecs() {
		for succeed := 0; succeed <= 1; succeed++ {
			t.Run(fmt.Sprintf("%s/succeed=%d", spec.Name, succeed), func(t *testing.T) {
				var events []obs.Event
				cfg := confConfig(1)
				cfg.Observer = obs.SinkFunc(func(e obs.Event) { events = append(events, e) })
				c := &failAfterCleaner{succeed: succeed, err: errors.New("erase rejected")}
				lv, err := spec.Build(cfg, c)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				c.report = lv.OnErase
				skew := func() {
					for i := 0; i < 200; i++ {
						lv.OnErase(0)
					}
				}
				skew()
				if lerr := lv.Level(); !errors.Is(lerr, c.err) {
					t.Fatalf("Level = %v, want the cleaner failure", lerr)
				}
				if c.calls != succeed+1 {
					t.Fatalf("cleaner called %d times, want %d", c.calls, succeed+1)
				}
				st := lv.Stats()
				if want := int64(succeed); st.SetsRecycled != want || st.Triggered != want {
					t.Errorf("SetsRecycled=%d Triggered=%d, want %d/%d", st.SetsRecycled, st.Triggered, want, want)
				}
				if len(events) < 2 {
					t.Fatalf("%d events, want at least an episode begin/end pair", len(events))
				}
				first, last := events[0], events[len(events)-1]
				if first.Kind != obs.EvEpisodeBegin || last.Kind != obs.EvEpisodeEnd || last.Sets != succeed {
					t.Errorf("episode events %v … %v with %d sets, want a begin/end pair with %d",
						first.Kind, last.Kind, last.Sets, succeed)
				}
				// The guard dropped with the error: the next call acts again.
				skew()
				if lerr := lv.Level(); !errors.Is(lerr, c.err) {
					t.Errorf("second Level = %v, want the cleaner failure again", lerr)
				}
			})
		}
	}
}
