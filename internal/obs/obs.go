// Package obs is the observability layer of the simulator: typed event
// tracing, cheap metrics (counters, gauges, and fixed-bucket histograms),
// periodic wear time-series samples, and an invariant checker that
// cross-checks live system state at the wear leveler's decision points.
//
// The paper's headline claims are distributional — first-failure time,
// erase-count deviation, overhead ratios — but end-of-run aggregates cannot
// show *how* wear evens out over time. This package supplies the hooks that
// per-event streams and periodic wear snapshots need: the nand chip, the
// translation-layer cleaners, and the SW Leveler all emit into an EventSink,
// and the simulation harness samples WearSamples into a trajectory.
//
// The package is dependency-free so every layer of the stack can emit into
// it without import cycles; hosts wire concrete state (the chip, the
// translation layer, the BET) into the InvariantChecker as closures.
//
// Everything is nil-tolerant and allocation-free when disabled: emission
// sites guard with a nil check and build Event values on the stack, a nil
// *Registry hands out nil instruments, and every instrument method is a
// no-op on a nil receiver. Like the simulated chip itself, obs values are
// confined to a single simulation goroutine — they are not safe for
// concurrent use (parallel experiment cells each build their own).
package obs

import "fmt"

// EventKind identifies the typed events the stack emits.
type EventKind uint8

const (
	// EvBlockErased reports one successful block erase (Block, Forced).
	EvBlockErased EventKind = iota
	// EvPagesCopied reports one garbage-collection copy batch: the live
	// pages relocated out of a block before its erase (Block, Pages,
	// Forced).
	EvPagesCopied
	// EvLevelerTriggered reports one SWL-Procedure decision point, emitted
	// immediately before the leveler asks the Cleaner to recycle a block
	// set (Findex, Scan, Ecnt, Fcnt). The InvariantChecker runs its checks
	// on this event.
	EvLevelerTriggered
	// EvBETReset reports the end of a resetting interval: every flag was
	// set and the BET restarted (Fcnt carries the post-reset flag count,
	// nonzero when excluded sets are pre-flagged).
	EvBETReset
	// EvBlockRetired reports a block withdrawn from service — worn out or
	// unerasable (Block, Forced).
	EvBlockRetired
	// EvFaultInjected reports an injected fault rejecting a chip primitive
	// (Block, Page, Op).
	EvFaultInjected
	// EvEpisodeBegin opens a leveler episode span: one SWL-Procedure
	// invocation that is about to act (Ecnt, Fcnt at entry). Everything the
	// stack emits until the matching EvEpisodeEnd is attributable leveling
	// cost; see EpisodeBuilder.
	EvEpisodeBegin
	// EvEpisodeEnd closes a leveler episode span (Ecnt, Fcnt at exit, plus
	// Sets/Skipped block-set counts for the invocation).
	EvEpisodeEnd
	// EvCacheWriteback reports one dirty line of the flash-aware write-back
	// cache (internal/serve/cache) written back to the device below — on
	// eviction or flush. Page carries the logical page the line caches,
	// Pages the sectors written, and Forced is true for whole-line
	// writebacks (the flash-friendly path that skips the read-modify-write).
	// Cache hits and fills are deliberately not events: they are far too hot
	// for the stream and are exposed as counters and spans instead.
	EvCacheWriteback
)

// String names the kind in snake_case, the form the JSONL schema uses.
func (k EventKind) String() string {
	switch k {
	case EvBlockErased:
		return "block_erased"
	case EvPagesCopied:
		return "pages_copied"
	case EvLevelerTriggered:
		return "leveler_triggered"
	case EvBETReset:
		return "bet_reset"
	case EvBlockRetired:
		return "block_retired"
	case EvFaultInjected:
		return "fault_injected"
	case EvEpisodeBegin:
		return "episode_begin"
	case EvEpisodeEnd:
		return "episode_end"
	case EvCacheWriteback:
		return "cache_writeback"
	default:
		return fmt.Sprintf("event_kind_%d", uint8(k))
	}
}

// Event is one typed observation. It is a plain value — emitting one
// allocates nothing. Fields not meaningful for a kind hold their zero value
// (block/page fields use -1 for "not applicable").
type Event struct {
	Kind EventKind
	// Block is the physical block concerned (BlockErased, PagesCopied,
	// BlockRetired, FaultInjected); -1 otherwise.
	Block int
	// Page is the page within the block (FaultInjected); -1 otherwise.
	Page int
	// Pages is the size of a copy batch (PagesCopied).
	Pages int
	// Forced marks work performed on behalf of the SW Leveler rather than
	// the free-space watermark.
	Forced bool
	// Findex is the block-set flag index the leveler selected
	// (LevelerTriggered); -1 otherwise.
	Findex int
	// Scan is how many set flags the cyclic scan stepped over to reach
	// Findex (LevelerTriggered).
	Scan int
	// Ecnt and Fcnt snapshot the leveler's unevenness state at the
	// decision point (LevelerTriggered, EpisodeBegin, EpisodeEnd; Fcnt also
	// on BETReset).
	Ecnt int64
	Fcnt int
	// Sets and Skipped count the block sets recycled and skipped by one
	// SWL-Procedure invocation (EpisodeEnd).
	Sets    int
	Skipped int
	// Op names the chip primitive a fault rejected (FaultInjected).
	Op string
	// Chip is the member-chip index of Block inside a multi-chip array, so
	// per-chip wear series stay separable when events funnel through one
	// sink. Single-chip stacks leave it 0; array stacks set -1 on events
	// that carry no block.
	Chip int
}

// EventSink receives events. Implementations must not retain references
// into the emitting layer; the Event value itself is safe to keep.
type EventSink interface {
	Observe(Event)
}

// SinkFunc adapts a function to the EventSink interface.
type SinkFunc func(Event)

// Observe calls f(e).
//
//lint:hotpath event emission; see obs/alloc_test.go
func (f SinkFunc) Observe(e Event) { f(e) }

// MultiSink fans every event out to several sinks, in order.
type MultiSink []EventSink

// Observe forwards the event to each sink.
//
//lint:hotpath event emission; see obs/alloc_test.go
func (m MultiSink) Observe(e Event) {
	for _, s := range m {
		s.Observe(e)
	}
}

// Combine returns a sink fanning out to the non-nil sinks: nil when none
// remain, the sink itself when one does, and a MultiSink otherwise.
func Combine(sinks ...EventSink) EventSink {
	var live []EventSink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return MultiSink(live)
	}
}

// Counter is a monotonically increasing metric. Methods are no-ops on a nil
// receiver, so disabled instrumentation costs one branch.
type Counter struct{ v int64 }

// Inc adds one.
//
//lint:hotpath metric emission; see obs/alloc_test.go
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
//
//lint:hotpath metric emission; see obs/alloc_test.go
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time metric. Methods are no-ops on a nil receiver.
type Gauge struct{ v int64 }

// Set records the current value.
//
//lint:hotpath metric emission; see obs/alloc_test.go
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the last value set (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts values into fixed buckets: Counts[i] counts values
// v <= Bounds[i] (first matching bound), with one implicit overflow bucket
// past the last bound. Methods are no-ops on a nil receiver.
type Histogram struct {
	bounds []int64
	counts []int64
	count  int64
	sum    int64
}

// Observe folds a value into the histogram.
//
//lint:hotpath metric emission; see obs/alloc_test.go
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns how many values were observed (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
	}
}

// HistogramSnapshot is a histogram's exported state: len(Counts) ==
// len(Bounds)+1, the final bucket counting values past the last bound.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Registry names and owns a run's instruments. A nil *Registry hands out
// nil instruments, whose methods are no-ops — callers resolve instruments
// once and instrument hot paths unconditionally. Not safe for concurrent
// use.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (nil on a nil registry). Bounds must be sorted
// ascending; later calls reuse the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{bounds: append([]int64(nil), bounds...), counts: make([]int64, len(bounds)+1)}
		r.histograms[name] = h
	}
	return h
}

// Snapshot exports every instrument's current value, with names sorted so
// dumps are deterministic.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry state (zero value on a nil registry).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Canonical metric names fed by NewMetricsSink.
const (
	MetricErases       = "erases_total"
	MetricForcedErases = "forced_erases_total"
	MetricCopiedPages  = "copied_pages_total"
	MetricRetired      = "retired_blocks_total"
	MetricFaults       = "faults_injected_total"
	MetricTriggers     = "leveler_triggers_total"
	MetricBETResets    = "bet_resets_total"
	MetricCopyBatches  = "gc_copy_batch_pages"
	MetricScanLengths  = "leveler_scan_length"
	MetricEpisodes     = "leveler_episodes_total"
	MetricEpisodeSets  = "leveler_episode_sets"
)

// Chip-level operation totals, fed by hosts from nand.Config.ObserveHook
// rather than by NewMetricsSink (chip primitives are far too hot to route
// through the event stream).
const (
	MetricChipReads    = "chip_reads_total"
	MetricChipPrograms = "chip_programs_total"
	MetricChipErases   = "chip_erases_total"
)

// Served-traffic totals, fed by internal/serve and the
// internal/serve/cache front-end from their own counters (per-request work
// is too hot for the event stream; only writebacks appear there).
const (
	MetricServeRequests   = "serve_requests_total"
	MetricServeBatches    = "serve_batches_total"
	MetricServeCoalesced  = "serve_coalesced_writes_total"
	MetricCacheHits       = "cache_hits_total"
	MetricCacheMisses     = "cache_misses_total"
	MetricCacheFills      = "cache_fills_total"
	MetricCacheWritebacks = "cache_writebacks_total"
)

// NewMetricsSink returns an EventSink folding the event stream into the
// registry under the canonical metric names: totals for erases (split
// forced/unforced), copied pages, retirements, faults, leveler triggers and
// BET resets, plus histograms of GC copy batch sizes and leveler scan
// lengths.
func NewMetricsSink(r *Registry) EventSink {
	erases := r.Counter(MetricErases)
	forced := r.Counter(MetricForcedErases)
	copied := r.Counter(MetricCopiedPages)
	retired := r.Counter(MetricRetired)
	faults := r.Counter(MetricFaults)
	triggers := r.Counter(MetricTriggers)
	resets := r.Counter(MetricBETResets)
	episodes := r.Counter(MetricEpisodes)
	batches := r.Histogram(MetricCopyBatches, 1, 2, 4, 8, 16, 32, 64, 128)
	scans := r.Histogram(MetricScanLengths, 0, 1, 2, 4, 8, 16, 32, 64, 128, 256)
	sets := r.Histogram(MetricEpisodeSets, 1, 2, 4, 8, 16, 32, 64)
	return SinkFunc(func(e Event) {
		switch e.Kind {
		case EvBlockErased:
			erases.Inc()
			if e.Forced {
				forced.Inc()
			}
		case EvPagesCopied:
			copied.Add(int64(e.Pages))
			batches.Observe(int64(e.Pages))
		case EvLevelerTriggered:
			triggers.Inc()
			scans.Observe(int64(e.Scan))
		case EvBETReset:
			resets.Inc()
		case EvBlockRetired:
			retired.Inc()
		case EvFaultInjected:
			faults.Inc()
		case EvEpisodeEnd:
			episodes.Inc()
			sets.Observe(int64(e.Sets))
		}
	})
}
