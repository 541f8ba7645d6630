package main

import (
	"fmt"
	"runtime"
	"time"

	"flashswl/internal/core"
	"flashswl/internal/mtd"
	"flashswl/internal/nand"
	"flashswl/internal/sim"
	"flashswl/internal/stats"
	"flashswl/internal/trace"
	model "flashswl/internal/workload"
)

// Replay constants. ISSUE 11 sized the device for endurance 3000 and T=30
// (the paper's T=100 scaled by 3000/10000); the contract this benchmark runs
// under gives a run about ten seconds, so endurance and T are shrunk by
// scaleDown and one run to first failure becomes the repeated unit of work.
const (
	scaleDown       = 10
	replayEndurance = 3000 / scaleDown
	replayT         = 30.0 / scaleDown
	// runawayEvents bounds a run that never wears a block out; reaching it
	// fails the workload. The longest run (replay_ftl_paper) is ~1.5 M events.
	runawayEvents = 6_000_000
)

var replayGeometry = nand.Geometry{Blocks: 256, PagesPerBlock: 32, PageSize: 2048, SpareSize: 64}

// replayWorkload is one trace-driven run of sim.Run to the first worn block.
type replayWorkload struct {
	id        string
	reason    string
	layer     sim.LayerKind
	driver    string // ftl, nftl, dftl: the per-layer metric prefix
	exportPct int    // exported share of the physical pages
	uniform   bool   // workload.NewUniform instead of the paper model
}

func (w *replayWorkload) name() string       { return w.id }
func (w *replayWorkload) why() string        { return w.reason }
func (w *replayWorkload) driverName() string { return w.driver }

func (w *replayWorkload) logicalPages() int { return replayGeometry.Pages() * w.exportPct / 100 }

func (w *replayWorkload) sectors() int64 {
	return int64(w.logicalPages()) * int64(replayGeometry.PageSize/512)
}

// config is swlsim's default wiring (no sink, no metrics, no tracer) on the
// benchmark's device.
func (w *replayWorkload) config(seed int64) sim.Config {
	return sim.Config{
		Geometry:        replayGeometry,
		Cell:            nand.MLC2,
		Endurance:       replayEndurance,
		Layer:           w.layer,
		LogicalSectors:  w.sectors(),
		SWL:             true,
		K:               0,
		T:               replayT,
		Seed:            seed,
		NoSpare:         true,
		MaxEvents:       runawayEvents,
		StopOnFirstWear: true,
	}
}

func (w *replayWorkload) source(seed int64) trace.Source {
	if w.uniform {
		return model.NewUniform(w.sectors(), 1.82, 1.97, 8, seed)
	}
	m := model.PaperScaled(w.sectors())
	m.Seed = seed
	return m.Infinite(seed)
}

// replayOutcome is what a run leaves behind that must repeat exactly for a
// fixed seed: every untraced repetition and the traced, hand-assembled stack
// are compared on it.
type replayOutcome struct {
	Events, PageWrites, PageReads int64
	Erases, LiveCopies            int64
	ForcedErases, ForcedCopies    int64
	Programs                      int64
	FirstWear                     time.Duration
	EraseMax, EraseMean           float64
}

// check is the replay correctness gate: the run must have ended by first
// wear, without a layer error and short of the runaway guard.
func (o replayOutcome) check(err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("layer error: %w", err)
	case o.FirstWear < 0:
		return fmt.Errorf("no block wore out after %d events", o.Events)
	case o.Events >= runawayEvents:
		return fmt.Errorf("hit the %d-event runaway guard", int64(runawayEvents))
	}
	return nil
}

func (o replayOutcome) metrics(m map[string]float64) {
	m["write_amp"] = float64(o.Programs) / float64(o.PageWrites)
	m["erase_max_over_mean"] = o.EraseMax / o.EraseMean
	m["first_failure_sim_h"] = o.FirstWear.Hours()
	m["swl_erase_share_pct"] = 100 * float64(o.ForcedErases) / float64(o.Erases)
	if o.LiveCopies > 0 {
		m["swl_copy_share_pct"] = 100 * float64(o.ForcedCopies) / float64(o.LiveCopies)
	}
}

// setupRepeats is how often a replay repetition builds its stack: set-up
// takes a fraction of a millisecond, too little to time once.
const setupRepeats = 16

// rep builds the stack (set-up) and runs the trace to first failure
// (measured) through sim.Run's own code path.
func (w *replayWorkload) rep(seed int64) (*repResult, error) {
	var (
		r      *sim.Runner
		src    trace.Source
		setups []time.Duration
	)
	runtime.GC() // every repetition starts from the same heap
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if r, err = sim.NewRunner(w.config(seed)); err != nil {
			return nil, err
		}
		src = w.source(seed)
		setups = append(setups, time.Since(t0))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t1 := time.Now()
	res, err := r.Run(src)
	window := time.Since(t1)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	out := replayOutcome{
		Events: res.Events, PageWrites: res.PageWrites, PageReads: res.PageReads,
		Erases: res.Erases, LiveCopies: res.LiveCopies,
		ForcedErases: res.ForcedErases, ForcedCopies: res.ForcedCopies,
		Programs:  r.Chip().Stats().Programs,
		FirstWear: res.FirstWear,
		EraseMax:  res.EraseStats.Max(), EraseMean: res.EraseStats.Mean(),
	}
	if err := out.check(res.Err); err != nil {
		return nil, err
	}
	rr := newRepResult(setups, window, res.Events)
	rr.metrics["alloc_bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Events)
	out.metrics(rr.metrics)
	rr.exact = out
	return rr, nil
}

// traced assembles the same stack by hand from the public constructors, with
// a shim at every interface boundary, and drives it with a copy of
// sim.Runner.drive's loop. It must reproduce ref exactly.
func (w *replayWorkload) traced(seed int64, ref *repResult) (*tracedResult, error) {
	t := newTracer()
	var (
		now       time.Duration
		firstWear = time.Duration(-1)
		worn      int
	)
	chip := nand.New(nand.Config{
		Geometry:  replayGeometry,
		Cell:      nand.MLC2,
		Endurance: replayEndurance,
		OnWear: func(int) {
			worn++
			if firstWear < 0 {
				firstWear = now
			}
		},
	})
	inner, counts, err := newDriver(w.driver, mtd.New(&chipShim{t, chip}), w.logicalPages())
	if err != nil {
		return nil, err
	}
	drv := &driverShim{t, inner}
	lv, err := core.NewLevelerByName("swl", core.BuildConfig{
		Blocks:    replayGeometry.Blocks,
		K:         0,
		Threshold: replayT,
		Select:    core.SelectCyclic,
		Rand:      core.NewSplitMix64(uint64(seed)),
		Chips:     1,
	}, drv)
	if err != nil {
		return nil, err
	}
	lev := &levelerShim{t, lv}
	inner.SetOnErase(lev.OnErase)
	src := &sourceShim{t, w.source(seed)}

	var (
		out    replayOutcome
		runErr error
		spp    = replayGeometry.PageSize / 512
	)
	start := time.Now()
loop:
	for worn == 0 && out.Events < runawayEvents {
		t.begin(spSimEvent)
		e, _ := src.Next() // both sources are infinite
		now = e.Time
		out.Events++
		first := int(e.LBA) / spp
		last := int(e.LBA+int64(e.Count)-1) / spp
		for lpn := first; lpn <= last && lpn < drv.LogicalPages(); lpn++ {
			switch e.Op {
			case trace.Write:
				runErr = drv.WritePage(lpn, nil)
				out.PageWrites++
			case trace.Read:
				_, runErr = drv.ReadPage(lpn, nil)
				out.PageReads++
			}
			if runErr != nil {
				t.end()
				break loop
			}
		}
		if lev.NeedsLeveling() {
			if runErr = lev.Level(); runErr != nil {
				t.end()
				break
			}
		}
		t.end()
	}
	wall := time.Since(start)

	c := counts()
	es := stats.Summarize(chip.EraseCounts(nil))
	out.Erases, out.LiveCopies = c.Erases, c.LiveCopies
	out.ForcedErases, out.ForcedCopies = c.ForcedErases, c.ForcedCopies
	out.Programs = chip.Stats().Programs
	out.FirstWear = firstWear
	out.EraseMax, out.EraseMean = es.Max(), es.Mean()
	if err := out.check(runErr); err != nil {
		return nil, err
	}
	if out != ref.exact {
		return nil, fmt.Errorf("hand-assembled stack diverged from sim.Run:\n  traced %+v\n  sim.Run %+v", out, ref.exact)
	}

	tr := newTracedResult(t, w.driver, wall, out.Events, false)
	m := tr.metrics
	ev := float64(out.Events)
	m["workload.next_self_ns_per_event"] = float64(t.agg[spWorkloadNext].Self) / ev
	m["sim.loop_self_ns_per_event"] = float64(t.agg[spSimEvent].Self) / ev
	m["sim.pages_per_event"] = float64(out.PageWrites+out.PageReads) / ev
	driverMetrics(m, w.driver, t, c)
	nandMetrics(m, t)
	coreMetrics(m, t, lv.Stats().Resets)
	return tr, nil
}
