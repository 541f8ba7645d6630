package main

import (
	"math"
	"slices"
	"strings"
	"time"

	"flashswl/internal/stats"
)

// metric describes one reported number. An end-to-end metric may worsen by
// Bound, a share of its median, or by Floor, in its own unit, whichever is
// more, before that counts as a regression; -repeat lets its runs spread as
// far. Per-layer metrics have neither.
type metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Floor  float64
	// On says which workloads report it: "all", "replay" or "serve".
	On string
}

// endToEnd is ISSUE 11's table. The bounds are the issue's, widened where
// ten seeds on the reference box spread further (see README.md, "Bounds").
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25, 0.05, "all"},
	{"ops_per_s", "ops/s", "higher", 0.25, 0, "all"},
	{"alloc_bytes_per_op", "B", "lower", 0.05, 0, "all"},
	{"write_amp", "ratio", "lower", 0.09, 0, "all"},
	{"erase_max_over_mean", "ratio", "lower", 0.15, 0, "all"},
	{"failed_op_share", "fraction", "lower", 0, 0, "all"},
	{"first_failure_sim_h", "sim_h", "higher", 0.01, 0, "replay"},
	{"swl_erase_share_pct", "%", "lower", 0, 1, "replay"},
	{"swl_copy_share_pct", "%", "lower", 0, 1, "replay"},
	{"write_p50_us", "us", "lower", 0.25, 0, "serve"},
	{"write_p99_us", "us", "lower", 0.25, 0, "serve"},
	{"read_p50_us", "us", "lower", 0.25, 0, "serve"},
	{"read_p99_us", "us", "lower", 0.25, 0, "serve"},
}

// contractEndToEnd is the subset BENCHMARK.json can carry as end_to_end: the
// contract wants every such metric on every workload and never 0, which
// rules out the replay-only and serve-only ones and failed_op_share (the
// result line's "failed"/"attempted" carry that one). The rest ride in
// BENCHMARK.json's per_layer list, unbounded there; -repeat still holds them
// to the bounds above.
func contractEndToEnd() []metric {
	var out []metric
	for _, m := range endToEnd {
		if m.inContract() {
			out = append(out, m)
		}
	}
	return out
}

func (m metric) inContract() bool { return m.On == "all" && m.Name != "failed_op_share" }

var driverNames = []string{"ftl", "nftl", "dftl"}

// perLayer is ISSUE 11's per-layer table, in print order. Lower is better
// unless the name is in higherIsBetter.
func perLayer() []metric {
	names := []string{
		"workload.next_self_ns_per_event ns", "workload.busy_share_pct %",
		"sim.loop_self_ns_per_event ns", "sim.pages_per_event ratio", "sim.busy_share_pct %",
	}
	for _, d := range driverNames {
		for _, m := range []string{
			"write_calls count", "write_self_ns_per_call ns", "read_calls count", "read_self_ns_per_call ns",
			"gc_write_pct %", "gc_write_p99_us us", "live_copies_per_erase ratio",
			"eraseblockset_calls count", "eraseblockset_self_ns_per_call ns", "busy_share_pct %",
		} {
			names = append(names, d+"."+m)
		}
	}
	names = append(names,
		"dftl.cmt_hit_ratio ratio", "dftl.tpage_writes_per_kwrite ratio",
		"nand.read_calls count", "nand.program_calls count", "nand.erase_calls count",
		"nand.read_ns_per_call ns", "nand.program_ns_per_call ns", "nand.erase_ns_per_call ns", "nand.busy_share_pct %",
		"core.onerase_calls count", "core.onerase_ns_per_call ns", "core.needsleveling_ns_per_call ns",
		"core.level_calls count", "core.level_self_ns_per_call ns", "core.bet_resets count", "core.busy_share_pct %",
		"blockdev.write_calls count", "blockdev.write_self_ns_per_call ns", "blockdev.read_calls count",
		"blockdev.read_self_ns_per_call ns", "blockdev.rmw_pct %", "blockdev.pages_per_write ratio", "blockdev.busy_share_pct %",
		"cache.hit_ratio ratio", "cache.read_self_ns_per_call ns", "cache.write_self_ns_per_call ns",
		"cache.fills_per_kreq ratio", "cache.writebacks_per_kreq ratio", "cache.final_flush_ms ms", "cache.busy_share_pct %",
		"serve.queue_self_ns_per_req ns", "serve.batch_mean ratio", "serve.coalesced_pct %", "serve.tick_ns_per_batch ns",
		"serve.write_p999_us us", "serve.read_p999_us us", "serve.busy_share_pct %",
		"trace.overhead_pct %", "trace.unattributed_pct %",
	)
	out := make([]metric, len(names))
	for i, n := range names {
		name, unit, _ := strings.Cut(n, " ")
		out[i] = metric{Name: name, Unit: unit, Better: "lower"}
		if higherIsBetter[name] {
			out[i].Better = "higher"
		}
	}
	return out
}

var higherIsBetter = map[string]bool{
	"dftl.cmt_hit_ratio": true, "cache.hit_ratio": true, "serve.batch_mean": true, "serve.coalesced_pct": true,
}

// contractPerLayer is BENCHMARK.json's per_layer list: the per-layer table
// plus the end-to-end metrics contractEndToEnd had to leave out.
func contractPerLayer() []metric {
	out := perLayer()
	for _, m := range endToEnd {
		if !m.inContract() {
			out = append(out, m)
		}
	}
	return out
}

// repResult is one repetition of a workload's unit of work with the
// benchmark's tracing off.
type repResult struct {
	// setups times every set-up the repetition did; setup_s is the median
	// over all of them, over all repetitions.
	setups  []time.Duration
	metrics map[string]float64
	// samples is how many latencies stand behind a percentile.
	samples   map[string]int64
	window    time.Duration
	attempted int64
	failed    int64
	exact     replayOutcome // replay only
}

// newRepResult starts a result from what every workload measures the same
// way; ops is the host operations the measured window completed.
func newRepResult(setups []time.Duration, window time.Duration, ops int64) *repResult {
	r := &repResult{
		setups:    setups,
		metrics:   map[string]float64{},
		samples:   map[string]int64{},
		window:    window,
		attempted: ops,
	}
	r.metrics["ops_per_s"] = float64(ops) / window.Seconds()
	return r
}

// tracedResult is one traced repetition: the per-layer metrics and the raw
// spans behind them.
type tracedResult struct {
	metrics map[string]float64
	samples map[string]int64
	spans   []rawSpan
	nsPerOp float64
}

// newTracedResult fills in what every traced pass reports the same way: each
// layer's share of the traced wall time and the remainder no span covers.
// For replay the timeline is the drive loop. For serve it is the actor's, and
// the serve layer is charged the time between the actor's calls into the
// stack: dequeue, batching, reply, and waiting for the two clients.
func newTracedResult(t *tracer, drv string, wall time.Duration, ops int64, actor bool) *tracedResult {
	tr := &tracedResult{
		metrics: map[string]float64{},
		samples: map[string]int64{},
		spans:   t.spans(),
		nsPerOp: float64(wall) / float64(ops),
	}
	self := t.layerSelf()
	if actor {
		self[layerServe] += t.last - t.first - t.rootTotal
	}
	var sum int64
	for l, ns := range self {
		if ns == 0 {
			continue
		}
		name := layerNames[l]
		if layer(l) == layerDriver {
			name = drv
		}
		tr.metrics[name+".busy_share_pct"] = 100 * float64(ns) / float64(wall)
		sum += ns
	}
	tr.metrics["trace.unattributed_pct"] = 100 * float64(int64(wall)-sum) / float64(wall)
	return tr
}

var layerNames = [numLayers]string{
	layerWorkload: "workload",
	layerSim:      "sim",
	layerDriver:   "driver",
	layerNand:     "nand",
	layerCore:     "core",
	layerBlockdev: "blockdev",
	layerCache:    "cache",
	layerServe:    "serve",
}

func perCall(a spanAgg, ns int64) float64 {
	if a.Calls == 0 {
		return 0
	}
	return float64(ns) / float64(a.Calls)
}

func driverMetrics(m map[string]float64, drv string, t *tracer, c driverCounts) {
	w, r, e := t.agg[spDrvWrite], t.agg[spDrvRead], t.agg[spDrvEraseBlockSet]
	m[drv+".write_calls"] = float64(w.Calls)
	m[drv+".write_self_ns_per_call"] = perCall(w, w.Self)
	m[drv+".read_calls"] = float64(r.Calls)
	m[drv+".read_self_ns_per_call"] = perCall(r, r.Self)
	m[drv+".gc_write_pct"] = 100 * float64(t.gcWrites) / float64(w.Calls)
	if gc := t.gcRing[:min(t.gcWrites, gcRingLen)]; len(gc) > 0 {
		m[drv+".gc_write_p99_us"] = float64(stats.Percentile(gc, 99)) / 1e3
	}
	if c.Erases > 0 {
		m[drv+".live_copies_per_erase"] = float64(c.LiveCopies) / float64(c.Erases)
	}
	m[drv+".eraseblockset_calls"] = float64(e.Calls)
	if e.Calls > 0 {
		m[drv+".eraseblockset_self_ns_per_call"] = perCall(e, e.Self)
	}
	if drv == "dftl" {
		m["dftl.cmt_hit_ratio"] = float64(c.CMTHits) / float64(c.CMTHits+c.CMTMisses)
		m["dftl.tpage_writes_per_kwrite"] = 1000 * float64(c.TPageWrites) / float64(w.Calls)
	}
}

func nandMetrics(m map[string]float64, t *tracer) {
	r, p, e := t.agg[spNandRead], t.agg[spNandProgram], t.agg[spNandErase]
	m["nand.read_calls"] = float64(r.Calls)
	m["nand.program_calls"] = float64(p.Calls)
	m["nand.erase_calls"] = float64(e.Calls)
	m["nand.read_ns_per_call"] = perCall(r, r.Total)
	m["nand.program_ns_per_call"] = perCall(p, p.Total)
	m["nand.erase_ns_per_call"] = perCall(e, e.Total)
}

func coreMetrics(m map[string]float64, t *tracer, betResets int64) {
	o, n, l := t.agg[spCoreOnErase], t.agg[spCoreNeedsLeveling], t.agg[spCoreLevel]
	m["core.onerase_calls"] = float64(o.Calls)
	m["core.onerase_ns_per_call"] = perCall(o, o.Total)
	m["core.needsleveling_ns_per_call"] = perCall(n, n.Total)
	m["core.level_calls"] = float64(l.Calls)
	if l.Calls > 0 {
		m["core.level_self_ns_per_call"] = perCall(l, l.Self)
	}
	m["core.bet_resets"] = float64(betResets)
}

// percentileLadder is what a latency may be reported at, lowest first, in
// hundredths of a percent so that the sample arithmetic stays in integers.
var percentileLadder = []int64{5000, 9000, 9900, 9990, 9999}

// highestPercentile picks the highest rung of the ladder that still has at
// least ten of n samples beyond it, as a fraction; 0 when even the median
// does not.
func highestPercentile(n int64) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n*(10000-p) >= 10*10000 {
			best = float64(p) / 10000
		}
	}
	return best
}

// finite keeps a ratio whose denominator was 0 out of the report.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
