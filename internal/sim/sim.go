// Package sim is the trace-driven simulation harness that reproduces the
// paper's experiments: it binds a workload trace to a Flash Translation
// Layer (FTL, NFTL, or DFTL), optionally attaches the SW Leveler, runs the trace
// against a simulated NAND chip, and reports endurance metrics — the first
// failure time (first block to exhaust its endurance, in simulated years)
// and the erase-count distribution — together with the overhead counters
// used for Figures 6 and 7.
//
// A Runner and everything it owns (chip, driver, leveler, injector) live on
// one goroutine; parallel experiments build one Runner per cell. Runs are
// deterministic: a Config plus an identically built trace source fully
// determine the Result, seeded reruns are bit-identical, and a run
// interrupted at a checkpoint and resumed (checkpoint.go) produces the
// same Result as an uninterrupted one.
package sim

import (
	"fmt"
	"math"
	"time"

	"flashswl/internal/array"
	"flashswl/internal/blockdev"
	"flashswl/internal/core"
	"flashswl/internal/faultinject"
	"flashswl/internal/mtd"
	"flashswl/internal/nand"
	"flashswl/internal/obs"
	"flashswl/internal/serve/cache"
	"flashswl/internal/stats"
	"flashswl/internal/trace"
)

// device is the harness's view of the simulated flash device: the mtd.Chip
// primitive surface plus the wear-accounting aggregates the harness samples.
// A single *nand.Chip and a multi-chip *array.Array both satisfy it.
type device interface {
	mtd.Chip
	EraseCounts(dst []int) []int
	WornBlocks() int
	Stats() nand.Stats
}

// Config assembles a simulation run.
type Config struct {
	// Geometry and Cell describe one chip; Endurance overrides the cell's
	// nominal limit when positive (scaled-down experiments).
	Geometry  nand.Geometry
	Cell      nand.CellKind
	Endurance int
	// ArrayChips, when > 1, builds the device as an array of that many
	// identical chips (Geometry stays per-chip; the exported block space is
	// Geometry.Blocks * ArrayChips). ArrayStripe interleaves global blocks
	// round-robin across chips instead of concatenating contiguous runs.
	// Fault injection is single-chip only and is rejected for arrays.
	ArrayChips  int
	ArrayStripe bool
	// Layer picks the translation layer implementation.
	Layer LayerKind
	// LogicalSectors is the exported space in 512-byte sectors; the trace
	// must stay within it. Defaults to the layer's own default export.
	LogicalSectors int64
	// SWL enables the static wear leveler with mapping mode K and
	// unevenness threshold T.
	SWL bool
	K   int
	T   float64
	// Leveler names the wear-leveling strategy from the core registry
	// ("swl", "periodic", "dualpool", "sawl", "gap", ...; see
	// core.LevelerNames). Empty defaults to "swl". T parameterizes every
	// threshold-style strategy (the unevenness level for swl/sawl, the
	// erase-count gap for dualpool/gap) and Period the periodic baseline.
	Leveler string
	// Seed drives the leveler's random BET restart position.
	Seed int64
	// StoreData makes the chip retain page payloads (slower; tests only).
	StoreData bool
	// NoSpare disables per-page spare writes in the layer (faster).
	NoSpare bool
	// GCFreeFraction overrides the layers' garbage-collection watermark
	// (the paper uses 0.2%; see the ablation benchmarks).
	GCFreeFraction float64
	// FTLDualFrontier selects the FTL's dual write frontier (an ablation;
	// the paper's FTL mixes relocated and fresh data in one frontier).
	FTLDualFrontier bool
	// SelectRandom switches the leveler from the paper's cyclic scan to
	// random block-set selection (an ablation; §3.3 surmises they are
	// close).
	SelectRandom bool
	// Period is the erase count between forced recycles of one random block
	// set under Leveler "periodic", the TrueFFS-style baseline
	// (core.PeriodicLeveler); K applies, T is ignored.
	Period int64
	// DFTLCache is the DFTL layer's translation-page cache budget (0 =
	// package default).
	DFTLCache int
	// CachePages, when positive, fronts the translation layer with the
	// flash-aware write-back cache (internal/serve/cache) holding that
	// many page-sized lines; host writes that hit a resident line are
	// absorbed in RAM and only reach the flash on eviction or at the final
	// flush. CacheAssoc sets the ways per set (0 = package default).
	// Incompatible with checkpointing: the cache's dirty lines are not
	// part of the checkpoint image.
	CachePages int
	CacheAssoc int
	// Faults, when non-nil, attaches a deterministic fault injector to the
	// chip (transient program/erase failures, grown-bad blocks, bit flips,
	// power cuts). The config is copied, so one template may parameterize
	// many parallel runs.
	Faults *faultinject.Config
	// CheckpointPath, when set, is where checkpoints are written: a
	// resumable snapshot of the full stack (chip image, layer, leveler,
	// injector, trace position, counters) lands there atomically every
	// CheckpointEvery events, whenever CheckpointRequested fires, and once
	// more when the run ends cleanly. The source must implement
	// trace.Seekable. See internal/checkpoint and sim.Resume.
	CheckpointPath string
	// CheckpointEvery writes a checkpoint every N trace events (0 = only
	// on request and at the end of the run).
	CheckpointEvery int64
	// CheckpointRequested, when non-nil, is polled after every trace event;
	// returning true triggers an immediate checkpoint to CheckpointPath.
	// The monitor server's /checkpoint endpoint plugs in here. The function
	// is called from the simulation goroutine; implementations typically
	// test-and-clear an atomic flag.
	CheckpointRequested func() bool
	// MaxEvents bounds the run by trace events (0 = unbounded).
	MaxEvents int64
	// MaxSimTime bounds the run by simulated time (0 = unbounded).
	MaxSimTime time.Duration
	// StopOnFirstWear ends the run when any block exhausts its endurance
	// (the paper's first-failure-time experiments).
	StopOnFirstWear bool

	// Sink, when non-nil, receives every observability event the stack
	// emits (cleaner erases and copy batches, leveler triggers and BET
	// resets, retirements, injected faults). See internal/obs.
	Sink obs.EventSink
	// SampleEvery takes a wear time-series sample every N trace events
	// (plus one final sample when the run ends) through an
	// obs.SeriesRecorder; 0 disables sampling, negative values fall back to
	// obs.DefaultSampleInterval. Samples land in Result.Series.
	SampleEvery int64
	// OnSample, when non-nil, receives each wear sample as it is taken.
	OnSample func(obs.WearSample)
	// OnEpisode, when non-nil, receives each completed leveler episode span
	// (one per SWL-Procedure invocation that acted; see obs.Episode).
	OnEpisode func(obs.Episode)
	// RecordEpisodes collects every episode span into Result.Episodes.
	// Result.LevelerEpisodes counts them regardless whenever any
	// observability consumer is attached.
	RecordEpisodes bool
	// Metrics attaches a metrics registry fed by the event stream and the
	// chip's operation counters; the final snapshot lands in
	// Result.Metrics.
	Metrics bool
	// TraceSpans, when positive, attaches an obs.Tracer with a ring of that
	// many spans: host writes/reads, translation, garbage collection, live
	// copies, erases, and SW-Leveler episodes all record causal spans, the
	// per-stage latency summary lands in Result.StageLatency, and the full
	// ring is available from Runner.Tracer for export
	// (internal/obs/chrometrace).
	TraceSpans int
	// TraceClock supplies the tracer's timestamps (e.g. a monotonic wall
	// clock for real latency profiles). Nil keeps the tracer on its
	// deterministic logical tick, so traced runs stay bit-identical.
	TraceClock func() int64
	// TraceSample records one in this many host-operation span trees (see
	// obs.Tracer.SetSample); leveler episodes are always recorded in full.
	// 0 or 1 records every tree — full fidelity for one-shot trace
	// captures; 16-64 is the always-on monitoring profile, thinning the
	// bulk host traffic to keep the tracer's cost in the noise.
	TraceSample int
	// CheckInvariants attaches an obs.InvariantChecker that cross-checks
	// leveler, translation-layer, and chip state at every leveler trigger
	// and once at the end of the run (skipped after a power cut, where RAM
	// state is legitimately torn). Results land in Result.InvariantChecks
	// and Result.InvariantViolations.
	CheckInvariants bool
}

// Result reports a finished run.
type Result struct {
	// FirstWear is the simulated time of the first block wear-out, or <0
	// if no block wore out before the run ended.
	FirstWear time.Duration
	// SimTime is the simulated time covered.
	SimTime time.Duration
	// Events, PageWrites, PageReads count trace-driven work.
	Events     int64
	PageWrites int64
	PageReads  int64
	// Erases is the total block erases; LiveCopies the total valid pages
	// copied during recycling; ForcedErases/ForcedCopies the share done on
	// behalf of the SW Leveler; GCRuns the watermark-triggered cleanings.
	Erases       int64
	LiveCopies   int64
	ForcedErases int64
	ForcedCopies int64
	GCRuns       int64
	// EraseCounts is the final per-block erase distribution and
	// EraseStats its summary (Table 4 reports avg/dev/max).
	EraseCounts []int
	EraseStats  stats.Running
	// WornBlocks is how many blocks exceeded their endurance.
	WornBlocks int
	// ProgramRetries and EraseRetries count transient faults the layer
	// recovered from; RetiredBlocks counts blocks it withdrew from service
	// (worn out or unerasable).
	ProgramRetries int64
	EraseRetries   int64
	RetiredBlocks  int64
	// Faults reports the injector's activity when Config.Faults was set.
	Faults faultinject.Stats
	// Leveler carries the SW Leveler's own activity counters when enabled.
	Leveler core.Stats
	// Series is the wear trajectory sampled every Config.SampleEvery
	// events; empty when sampling was off.
	Series []obs.WearSample
	// Episodes holds every leveler episode span when
	// Config.RecordEpisodes was set; LevelerEpisodes counts completed
	// spans whenever episode tracking was active at all.
	Episodes        []obs.Episode
	LevelerEpisodes int64
	// Metrics is the final metrics snapshot when Config.Metrics was set.
	Metrics *obs.Snapshot
	// Cache reports the write-back cache's activity when Config.CachePages
	// was set; nil otherwise.
	Cache *cache.Stats
	// StageLatency summarizes per-stage span durations when
	// Config.TraceSpans was set, keyed by span kind name (see
	// obs.Tracer.StageLatency). Durations are logical ticks unless
	// Config.TraceClock supplied a wall clock.
	StageLatency map[string]obs.StageLatency
	// InvariantChecks counts the checkpoints the invariant checker ran and
	// InvariantViolations the failures it recorded (capped; see
	// obs.InvariantChecker) when Config.CheckInvariants was set.
	InvariantChecks     int64
	InvariantViolations []obs.Violation
	// Err records a layer failure (e.g. device full) that ended the run
	// early; the partial results are still valid.
	Err error
}

// FirstWearYears converts the first failure time to years, the unit of
// Figure 5. It returns 0 when no block wore out.
func (r *Result) FirstWearYears() float64 {
	if r.FirstWear < 0 {
		return 0
	}
	return r.FirstWear.Hours() / (24 * 365)
}

// EraseRatio returns this run's total erases relative to a baseline run,
// as a percentage (Figure 6 reports these with the baseline at 100%).
func (r *Result) EraseRatio(baseline *Result) float64 {
	if baseline.Erases == 0 {
		return 0
	}
	return 100 * float64(r.Erases) / float64(baseline.Erases)
}

// CopyRatio returns this run's live-page copyings relative to a baseline
// run, as a percentage (Figure 7). When the baseline made no copies at all
// the ratio is undefined: any copying is infinitely worse than none, so the
// method returns +Inf (or 100 when this run also made none). Callers that
// hit the sentinel should report r.LiveCopies absolutely instead.
func (r *Result) CopyRatio(baseline *Result) float64 {
	if baseline.LiveCopies == 0 {
		if r.LiveCopies == 0 {
			return 100
		}
		return math.Inf(1)
	}
	return 100 * float64(r.LiveCopies) / float64(baseline.LiveCopies)
}

// Leveler is the harness's view of a wear leveling module. It is the full
// core.LevelerModule contract — update, trigger test, procedure, stats, and
// the kind-tagged state codec — so checkpoint/resume and the arena work for
// every registered strategy without the harness switching on concrete types.
type Leveler = core.LevelerModule

// LevelerName resolves the effective strategy name of this config: the
// explicit Config.Leveler if set, else the paper's SW Leveler. It is empty
// when SWL is off.
func (c Config) LevelerName() string {
	switch {
	case !c.SWL:
		return ""
	case c.Leveler != "":
		return c.Leveler
	default:
		return "swl"
	}
}

// Runner is a configured simulation bound to a device, layer, and leveler.
type Runner struct {
	cfg     Config
	chip    *nand.Chip   // first member chip (the whole device when single-chip)
	chips   []*nand.Chip // every member chip, in array order
	arr     *array.Array // nil for a single-chip device
	dev     device       // the device the layer runs on: r.chip or r.arr
	layer   Layer
	leveler Leveler
	inj     *faultinject.Injector
	spp     int // sectors per page

	// cache, when Config.CachePages was set, fronts the layer with the
	// write-back cache; cacheBuf is the reusable scratch page the
	// data-less trace reads and writes carry through it (its content is
	// irrelevant — only which pages move matters for endurance).
	cache    *cache.Cache
	cacheBuf []byte

	sink          obs.EventSink
	tracer        *obs.Tracer
	reg           *obs.Registry
	checker       *obs.InvariantChecker
	episodes      *obs.EpisodeBuilder
	recorded      []obs.Episode
	nepisodes     int64
	series        *obs.SeriesRecorder
	erasesAtReset int64 // chip erase total at the last BET reset
	ecBuf         []int // reused erase-count buffer for sampling

	now       time.Duration
	firstWear time.Duration
	worn      int

	// Trace-driven work counters. These live on the Runner (not the Result)
	// so a resumed run continues them exactly where the checkpoint left off;
	// Run copies them into the Result at the end.
	events     int64
	pageWrites int64
	pageReads  int64
	src        trace.Source // the source being driven, for checkpointing
}

// NewRunner builds the full stack for a run.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	nchips := cfg.ArrayChips
	if nchips < 1 {
		nchips = 1
	}
	if nchips > 1 && cfg.Faults != nil {
		return nil, fmt.Errorf("sim: fault injection is single-chip only (ArrayChips=%d): %w", nchips, ErrUnsupported)
	}
	r := &Runner{cfg: cfg, firstWear: -1}
	r.spp = cfg.Geometry.PageSize / 512
	if r.spp < 1 {
		r.spp = 1
	}
	if cfg.SampleEvery != 0 {
		r.series = obs.NewSeriesRecorder(cfg.SampleEvery)
	}
	if cfg.TraceSpans > 0 {
		r.tracer = obs.NewTracer(cfg.TraceSpans, cfg.TraceClock)
		r.tracer.SetSample(cfg.TraceSample)
	}
	r.buildSinks()
	var hook func(op nand.Op, block, page int) error
	if cfg.Faults != nil {
		r.inj = faultinject.New(*cfg.Faults)
		hook = r.inj.Hook
		if r.sink != nil {
			// Report rejected primitives into the event stream. A power cut
			// panics out of the injector, so it is not reported here — the
			// run's abrupt end is its record.
			inner := r.inj.Hook
			hook = func(op nand.Op, block, page int) error {
				err := inner(op, block, page)
				if err != nil {
					r.sink.Observe(obs.Event{Kind: obs.EvFaultInjected, Block: block, Page: page, Findex: -1, Op: op.String()})
				}
				return err
			}
		}
	}
	chipCfg := nand.Config{
		Geometry:    cfg.Geometry,
		Cell:        cfg.Cell,
		Endurance:   cfg.Endurance,
		StoreData:   cfg.StoreData,
		FaultHook:   hook,
		ObserveHook: r.chipObserveHook(),
		OnWear: func(block int) {
			r.worn++
			if r.firstWear < 0 {
				r.firstWear = r.now
			}
		},
	}
	r.chips = make([]*nand.Chip, nchips)
	for i := range r.chips {
		r.chips[i] = nand.New(chipCfg)
	}
	r.chip = r.chips[0]
	if nchips > 1 {
		layout := array.Concat
		if cfg.ArrayStripe {
			layout = array.Striped
		}
		arr, err := array.NewWithLayout(layout, r.chips...)
		if err != nil {
			return nil, err
		}
		r.arr = arr
		r.dev = arr
		r.tracer.SetChipOf(arr.ChipOf)
		if r.sink != nil {
			// Attribute every block-carrying event to its member chip, so
			// per-chip wear series stay separable downstream of the shared
			// sink. Blockless events get Chip = -1.
			inner := r.sink
			r.sink = obs.SinkFunc(func(e obs.Event) {
				e.Chip = arr.ChipOf(e.Block)
				inner.Observe(e)
			})
		}
	} else {
		r.dev = r.chip
	}
	if r.inj != nil {
		r.inj.BindChip(r.chip)
	}
	dev := mtd.New(r.dev)
	logicalPages := 0
	if cfg.LogicalSectors > 0 {
		logicalPages = int((cfg.LogicalSectors + int64(r.spp) - 1) / int64(r.spp))
	}
	if !cfg.Layer.valid() {
		return nil, fmt.Errorf("sim: unknown layer kind %d", cfg.Layer)
	}
	layer, err := layers[cfg.Layer].new(dev, layerParams{
		logicalPages:    logicalPages,
		noSpare:         cfg.NoSpare,
		gcFreeFraction:  cfg.GCFreeFraction,
		ftlDualFrontier: cfg.FTLDualFrontier,
		dftlCache:       cfg.DFTLCache,
	})
	if err != nil {
		return nil, err
	}
	r.layer = layer
	r.layer.SetObserver(r.sink)
	r.layer.SetTracer(r.tracer)
	if cfg.SWL {
		seed := cfg.Seed
		if seed == 0 {
			seed = 1
		}
		policy := core.SelectCyclic
		if cfg.SelectRandom {
			policy = core.SelectRandom
		}
		lv, err := core.NewLevelerByName(cfg.LevelerName(), core.BuildConfig{
			Blocks:     r.dev.Geometry().Blocks,
			K:          cfg.K,
			Threshold:  cfg.T,
			Period:     cfg.Period,
			Select:     policy,
			Rand:       core.NewSplitMix64(uint64(seed)),
			Chips:      nchips,
			Interleave: cfg.ArrayStripe,
			Observer:   r.sink,
			Tracer:     r.tracer,
		}, r.layer)
		if err != nil {
			return nil, err
		}
		r.leveler = lv
		r.layer.SetOnErase(lv.OnErase)
	}
	if cfg.CachePages > 0 {
		bdev, err := blockdev.New(r.layer, cfg.Geometry.PageSize)
		if err != nil {
			return nil, err
		}
		c, err := cache.New(bdev, cache.Config{
			PageSize: cfg.Geometry.PageSize,
			Pages:    cfg.CachePages,
			Assoc:    cfg.CacheAssoc,
		})
		if err != nil {
			return nil, err
		}
		c.SetObserver(r.sink)
		c.SetTracer(r.tracer)
		if r.reg != nil {
			c.SetMetrics(r.reg)
		}
		r.cache = c
		r.cacheBuf = make([]byte, cfg.Geometry.PageSize)
	}
	r.registerChecks()
	return r, nil
}

// Cache exposes the write-back cache, or nil when Config.CachePages was
// unset.
func (r *Runner) Cache() *cache.Cache { return r.cache }

// Registry returns the metrics registry, or nil when Config.Metrics is off.
func (r *Runner) Registry() *obs.Registry { return r.reg }

// InvariantChecker returns the attached checker, or nil.
func (r *Runner) InvariantChecker() *obs.InvariantChecker { return r.checker }

// Layer exposes the translation layer (for white-box tests and examples).
func (r *Runner) Layer() Layer { return r.layer }

// Chip exposes the simulated chip (the first member for a multi-chip
// device; see Array and the Device* accessors for the whole device).
func (r *Runner) Chip() *nand.Chip { return r.chip }

// Array exposes the multi-chip array, or nil for a single-chip device.
func (r *Runner) Array() *array.Array { return r.arr }

// DeviceGeometry returns the whole device's combined geometry.
func (r *Runner) DeviceGeometry() nand.Geometry { return r.dev.Geometry() }

// DeviceEndurance returns the device's (weakest member's) endurance limit.
func (r *Runner) DeviceEndurance() int { return r.dev.Endurance() }

// DeviceEraseCounts appends the device-wide per-block erase counts, in
// global block order, to dst.
func (r *Runner) DeviceEraseCounts(dst []int) []int { return r.dev.EraseCounts(dst) }

// Leveler returns the attached wear leveler, or nil.
func (r *Runner) Leveler() Leveler { return r.leveler }

// Injector returns the fault injector, or nil when Config.Faults was unset.
func (r *Runner) Injector() *faultinject.Injector { return r.inj }

// Tracer returns the causal span tracer, or nil when Config.TraceSpans was
// unset. Hosts snapshot it for export (internal/obs/chrometrace) or publish
// recent windows through the monitor.
func (r *Runner) Tracer() *obs.Tracer { return r.tracer }

// Run consumes the source until a stop condition and reports the results.
// A layer error (such as running out of space on a worn-out device) stops
// the run and is recorded in Result.Err rather than returned, since partial
// endurance results are exactly what the experiments need.
func (r *Runner) Run(src trace.Source) (*Result, error) {
	if err := r.checkCheckpointConfig(src); err != nil {
		return nil, err
	}
	r.src = src
	res := &Result{FirstWear: -1}
	runErr := r.drive(src)
	if r.cache != nil && runErr == nil {
		// Push the dirty lines down so the endurance accounting below sees
		// every host write that must eventually reach the flash.
		runErr = r.flushCache()
	}
	if runErr == nil && r.cfg.CheckpointPath != "" {
		// Final checkpoint at a clean end, so an interrupted-and-resumed
		// pipeline always has the finished state on disk. Skipped after an
		// error (a power cut legitimately tears the RAM state).
		if err := r.writeCheckpointFile(r.cfg.CheckpointPath); err != nil {
			return nil, err
		}
	}

	res.Events = r.events
	res.PageWrites = r.pageWrites
	res.PageReads = r.pageReads
	res.SimTime = r.now
	res.FirstWear = r.firstWear
	res.WornBlocks = r.worn
	res.EraseCounts = r.dev.EraseCounts(nil)
	res.EraseStats = stats.Summarize(res.EraseCounts)
	c := r.layer.GCCounters()
	res.Erases, res.LiveCopies, res.GCRuns = c.Erases, c.LiveCopies, c.GCRuns
	res.ForcedErases, res.ForcedCopies = c.ForcedErases, c.ForcedCopies
	res.ProgramRetries, res.EraseRetries, res.RetiredBlocks = c.ProgramRetries, c.EraseRetries, c.RetiredBlocks
	if r.leveler != nil {
		res.Leveler = r.leveler.Stats()
	}
	if r.inj != nil {
		res.Faults = r.inj.Stats()
	}
	if r.series != nil {
		// Close the trajectory with the end-of-run state unless the last
		// periodic sample already landed exactly here.
		if last, ok := r.series.Last(); !ok || last.Events != res.Events {
			r.sample()
		}
		res.Series = r.series.Samples()
	}
	res.Episodes = r.recorded
	res.LevelerEpisodes = r.nepisodes
	if r.checker != nil {
		if _, cut := runErr.(faultinject.PowerCut); !cut {
			// Final sweep — skipped after a power cut, which legitimately
			// tears the RAM state mid-operation (recovery is Mount's job).
			r.checker.RunChecks()
		}
		res.InvariantChecks = r.checker.Checkpoints()
		res.InvariantViolations = r.checker.Violations()
	}
	if r.reg != nil {
		snap := r.reg.Snapshot()
		res.Metrics = &snap
	}
	if r.cache != nil {
		st := r.cache.Stats()
		res.Cache = &st
	}
	if r.tracer != nil {
		res.StageLatency = r.tracer.StageLatency()
	}
	res.Err = runErr
	return res, nil
}

// drive consumes the source until a stop condition, accumulating the
// trace-driven work in the runner's counters (which survive checkpoint and
// resume). An injected power cut panics out of whatever flash primitive it
// lands on; drive converts that into an ordinary error so the caller can
// inspect the chip exactly as a remount would find it.
func (r *Runner) drive(src trace.Source) (runErr error) {
	defer func() {
		if rec := recover(); rec != nil {
			cut, ok := faultinject.AsPowerCut(rec)
			if !ok {
				panic(rec)
			}
			runErr = cut
		}
	}()

	// Fixed for the length of a run, so read once rather than per event (the
	// bounds) or per page (the exported size).
	stopOnFirstWear, maxEvents, maxSimTime := r.cfg.StopOnFirstWear, r.cfg.MaxEvents, r.cfg.MaxSimTime
	logicalPages := r.layer.LogicalPages()

loop:
	for {
		// Checked at the top of the loop (not after the event that caused
		// the wear) so that resuming a checkpoint of an already-finished run
		// is a no-op; within one run the event counts are unchanged, since
		// the check still fires before the next event is consumed.
		if stopOnFirstWear && r.worn > 0 {
			break
		}
		if maxEvents > 0 && r.events >= maxEvents {
			break
		}
		e, ok := src.Next()
		if !ok {
			break
		}
		if maxSimTime > 0 && e.Time > maxSimTime {
			break
		}
		r.now = e.Time
		r.events++

		first := int(e.LBA) / r.spp
		last := int(e.LBA+int64(e.Count)-1) / r.spp
		for lpn := first; lpn <= last; lpn++ {
			if lpn >= logicalPages {
				break // trace touches space beyond the exported device
			}
			switch e.Op {
			case trace.Write:
				sp := r.tracer.Begin(obs.SpanHostWrite, -1, int64(lpn))
				var err error
				if r.cache != nil {
					// Whole-line write: allocates without fetching, so a
					// resident hot page absorbs the write entirely in RAM.
					err = r.cache.WriteSectors(int64(lpn)*int64(r.spp), r.cacheBuf)
				} else {
					err = r.layer.WritePage(lpn, nil)
				}
				r.tracer.End(sp)
				if err != nil {
					runErr = err
					break loop
				}
				r.pageWrites++
			case trace.Read:
				sp := r.tracer.Begin(obs.SpanHostRead, -1, int64(lpn))
				var err error
				if r.cache != nil {
					err = r.cache.ReadSectors(int64(lpn)*int64(r.spp), r.cacheBuf)
				} else {
					_, err = r.layer.ReadPage(lpn, nil)
				}
				r.tracer.End(sp)
				if err != nil {
					runErr = err
					break loop
				}
				r.pageReads++
			}
		}
		if r.leveler != nil && r.leveler.NeedsLeveling() {
			if err := r.leveler.Level(); err != nil {
				runErr = err
				break
			}
		}
		if r.series != nil && r.series.Due(r.events) {
			r.sample()
		}
		if err := r.maybeCheckpoint(); err != nil {
			runErr = err
			break
		}
	}
	return runErr
}

// flushCache writes the cache's dirty lines down, converting an injected
// power-cut panic into its ordinary error form like drive does.
func (r *Runner) flushCache() (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			cut, ok := faultinject.AsPowerCut(rec)
			if !ok {
				panic(rec)
			}
			err = cut
		}
	}()
	return r.cache.Flush()
}

// Run builds a runner for cfg and consumes src. See Runner.Run.
func Run(cfg Config, src trace.Source) (*Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run(src)
}
