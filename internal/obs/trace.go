package obs

import "math/bits"

// Causal span tracing. The event stream (obs.Event) answers "what happened";
// spans answer "on whose behalf": one host write opens a span, the
// translation layer opens a child under it, garbage collection another, and
// by the time a chip erase fires its span carries the whole ancestry —
// host_write → translate → gc_merge → live_copy → erase — so the erase is
// attributable to the operation that ultimately caused it. The leveler opens
// the same structure from the other side: swl_episode → scan → set_select →
// live_copy → erase. The paper's overhead claims are exactly this
// attribution, aggregated.
//
// The Tracer follows the obs contract: a nil *Tracer is a no-op costing one
// branch per call, and an enabled tracer allocates nothing per span — spans
// land in a preallocated ring (old spans are overwritten, never grown) and
// the open-span ancestry lives in a fixed-depth stack. Like every obs value
// it is confined to the emitting goroutine.

// SpanID identifies one span; IDs are assigned sequentially from 1, and 0
// means "no span" (the nil tracer hands it out, and End ignores it).
type SpanID uint64

// SpanKind identifies what stage of the stack a span covers.
type SpanKind uint8

const (
	// SpanHostWrite covers one host write as driven by the harness (Arg is
	// the logical page number).
	SpanHostWrite SpanKind = iota
	// SpanHostRead covers one host read (Arg is the logical page number).
	SpanHostRead
	// SpanTranslate covers the translation layer's handling of one host
	// write: mapping update, allocation, and any garbage collection it had
	// to run for headroom (Arg is the logical page number).
	SpanTranslate
	// SpanGCMerge covers the recycling of one block: live data moved out,
	// block erased (Block is the victim).
	SpanGCMerge
	// SpanLiveCopy covers the live-page copy phase of one recycling (Block
	// is the source block, Pages the pages copied).
	SpanLiveCopy
	// SpanErase covers one chip block erase, including retry and retirement
	// handling (Block is the block).
	SpanErase
	// SpanSWLEpisode covers one acting SWL-Procedure invocation, the span
	// twin of the EvEpisodeBegin/EvEpisodeEnd event pair.
	SpanSWLEpisode
	// SpanScan covers one block-set selection scan (Arg is the scan
	// distance in flags).
	SpanScan
	// SpanSetSelect covers the forced recycling of one selected block set
	// (Arg is the flag index).
	SpanSetSelect
	// SpanHostRequest covers one served block-device request from the start
	// of service to its result: the serving twin of SpanHostWrite/
	// SpanHostRead, rooted at internal/serve rather than the trace harness
	// (Arg is the start LBA, Pages the sector count).
	SpanHostRequest
	// SpanQueueWait covers the time from a served request's submission to
	// the start of its service (waiting for a busy stack, if it was).
	// Recorded retroactively via Tracer.Observe, so its duration is only
	// meaningful under a wall TraceClock shared with the submitting
	// goroutines.
	SpanQueueWait
	// SpanCacheHit covers a request satisfied from the write-back cache
	// without touching the translation layer (Arg is the logical page).
	SpanCacheHit
	// SpanCacheFill covers a cache miss filling a line from the device
	// below (Arg is the logical page).
	SpanCacheFill
	// SpanCacheWriteback covers one dirty line written back to the device —
	// on eviction or flush (Arg is the logical page, Pages the sectors
	// written, Block -1).
	SpanCacheWriteback

	numSpanKinds = int(SpanCacheWriteback) + 1
)

// String names the kind in snake_case, the form the trace export uses.
func (k SpanKind) String() string {
	switch k {
	case SpanHostWrite:
		return "host_write"
	case SpanHostRead:
		return "host_read"
	case SpanTranslate:
		return "translate"
	case SpanGCMerge:
		return "gc_merge"
	case SpanLiveCopy:
		return "live_copy"
	case SpanErase:
		return "erase"
	case SpanSWLEpisode:
		return "swl_episode"
	case SpanScan:
		return "scan"
	case SpanSetSelect:
		return "set_select"
	case SpanHostRequest:
		return "host_request"
	case SpanQueueWait:
		return "queue_wait"
	case SpanCacheHit:
		return "cache_hit"
	case SpanCacheFill:
		return "cache_fill"
	case SpanCacheWriteback:
		return "cache_writeback"
	default:
		return "span_kind_unknown"
	}
}

// SpanKindFromString maps a snake_case name back to its kind; ok is false
// for unknown names (trace files from future versions).
func SpanKindFromString(s string) (SpanKind, bool) {
	for k := SpanKind(0); int(k) < numSpanKinds; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// Span is one completed or in-flight stage of work. It is a plain value —
// recording one allocates nothing. End is 0 while the span is open.
type Span struct {
	ID     SpanID
	Parent SpanID
	Kind   SpanKind
	// Begin and End are clock readings (nanoseconds under a wall clock,
	// logical ticks under the default deterministic clock).
	Begin int64
	End   int64
	// Block is the physical block concerned, -1 when none; Chip its member
	// chip inside an array (0 on single-chip stacks, matching Event.Chip).
	Block int
	Chip  int
	// Pages is the size of a live-copy batch (SpanLiveCopy).
	Pages int
	// Arg is the kind-specific attribute: the logical page for host and
	// translate spans, the scan distance for SpanScan, the flag index for
	// SpanSetSelect.
	Arg int64
}

// Duration returns End-Begin, or 0 while the span is open.
func (s Span) Duration() int64 {
	if s.End == 0 {
		return 0
	}
	return s.End - s.Begin
}

// maxSpanDepth bounds the open-span ancestry stack. The stack's deepest real
// chain is host_write → translate → gc_merge → live_copy → translate-free
// program path → erase; 64 leaves room for pathological recursion without
// ever allocating.
const maxSpanDepth = 64

// latencyBuckets is the per-kind duration histogram resolution: bucket i
// counts durations d with 2^(i-1) <= d < 2^i (bucket 0 counts d == 0), so
// percentiles resolve to a factor of two at any magnitude.
const latencyBuckets = 64

// frame is one open span on the ancestry stack. Begin is duplicated from
// the ring slot so durations survive the slot being overwritten by a ring
// wrap while the span is still open.
type frame struct {
	id    SpanID
	kind  SpanKind
	begin int64
}

// stageAgg accumulates per-kind duration statistics as spans end.
type stageAgg struct {
	count   int64
	sum     int64
	max     int64
	buckets [latencyBuckets]int64
}

// skippedSpan is the ID Begin hands out inside a sampled-away host-op tree.
// Like SpanID 0 it records nothing; unlike 0 its End still balances the
// suppression depth, so the tracer knows when the skipped tree closes.
const skippedSpan = SpanID(1<<64 - 1)

// Tracer records causal spans into a fixed-size ring. The zero ID contract
// makes disabled tracing free: every method is a no-op on a nil receiver,
// Begin then hands out SpanID 0, and End(0) returns immediately.
type Tracer struct {
	ring   []Span
	mask   uint64 // len(ring)-1; the capacity is a power of two
	seq    uint64
	clock  func() int64
	tick   int64
	chipOf func(block int) int
	// sample records one in sample host-op trees (0 and 1 record all);
	// until counts down host roots to the next recorded one, and skip is
	// the open-span depth inside the tree currently being skipped. skip is
	// signed and unguarded on the hot path: an unbalanced skipped End can
	// only drive it negative, which Begin reads as "not skipping" and the
	// next skipped root overwrites with 1 — misuse degrades to a slightly
	// off sampling rate instead of corrupting the tracer.
	sample uint64
	until  uint64
	skip   int64
	stack  [maxSpanDepth]frame
	depth  int
	stats  [numSpanKinds]stageAgg
}

// NewTracer returns a tracer keeping the most recent capacity spans,
// rounded up to a power of two (minimum 1) so the hot path indexes the ring
// with a mask instead of a division. clock supplies timestamps — a wall
// clock for real latency profiles — and may be nil, in which case the
// tracer uses a deterministic logical tick that advances by one per
// Begin/End, so traced simulation runs stay bit-identical.
func NewTracer(capacity int, clock func() int64) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	pow2 := 1
	for pow2 < capacity {
		pow2 <<= 1
	}
	return &Tracer{ring: make([]Span, pow2), mask: uint64(pow2 - 1), clock: clock, until: 1}
}

// SetSample makes the tracer record one in n host-operation trees (trees
// rooted at a SpanHostWrite, SpanHostRead, or SpanHostRequest Begin at
// depth zero); the other
// n-1 are skipped wholesale, children included, at a cost of two predictable
// branches per skipped span. Leveler episodes and anything else beginning
// outside a host root are always recorded, so sampling thins the bulk host
// traffic without losing a single swl_episode attribution. n <= 1 records
// everything (the default). The countdown is deterministic — the first host
// root after construction is always recorded.
func (t *Tracer) SetSample(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.sample = uint64(n)
	t.until = 1
}

// SetChipOf installs the block → member-chip attribution function (an
// array's ChipOf); spans then carry the chip exactly as events do. Without
// it every span reports chip 0, the single-chip convention.
func (t *Tracer) SetChipOf(fn func(block int) int) {
	if t != nil {
		t.chipOf = fn
	}
}

// now reads the clock, or advances the deterministic tick.
//
//lint:hotpath span recording; see obs/alloc_test.go
func (t *Tracer) now() int64 {
	if t.clock != nil {
		return t.clock()
	}
	t.tick++
	return t.tick
}

// Begin opens a span of the given kind under the currently open span (the
// ancestry is a stack: the most recent unfinished Begin is the parent).
// Block is the physical block concerned or -1; arg the kind-specific
// attribute. It returns the span's ID — 0 on a nil tracer, skippedSpan
// inside a sampled-away tree; both are accepted and ignored by End. This
// wrapper stays within the inlining budget so the disabled and skipped
// cases cost only the branches.
//
//lint:hotpath span recording; see obs/alloc_test.go
func (t *Tracer) Begin(kind SpanKind, block int, arg int64) SpanID {
	if t == nil {
		return 0
	}
	if t.skip > 0 {
		t.skip++
		return skippedSpan
	}
	return t.record(kind, block, arg)
}

// record is Begin's slow half: the sampling decision and the actual span
// write. Split out so Begin itself inlines.
//
//lint:hotpath span recording; see obs/alloc_test.go
func (t *Tracer) record(kind SpanKind, block int, arg int64) SpanID {
	if t.sample > 1 && t.depth == 0 && (kind == SpanHostWrite || kind == SpanHostRead || kind == SpanHostRequest) {
		t.until--
		if t.until != 0 {
			t.skip = 1
			return skippedSpan
		}
		t.until = t.sample
	}
	t.seq++
	id := SpanID(t.seq)
	var parent SpanID
	if t.depth > 0 {
		parent = t.stack[t.depth-1].id
	}
	chip := 0
	if t.chipOf != nil {
		chip = t.chipOf(block)
	}
	begin := t.now()
	t.ring[(t.seq-1)&t.mask] = Span{
		ID: id, Parent: parent, Kind: kind,
		Begin: begin, Block: block, Chip: chip, Arg: arg,
	}
	if t.depth < maxSpanDepth {
		t.stack[t.depth] = frame{id: id, kind: kind, begin: begin}
		t.depth++
	}
	return id
}

// End closes the span. Ending span 0 (the nil tracer's handout) is a no-op,
// so callers never guard, and ending a skipped span just unwinds the
// sampling suppression. Ending a span whose descendants are still open
// closes them implicitly (error paths unwind through deferred parent Ends);
// their durations are then unaccounted rather than fabricated. Like Begin,
// the wrappers inline so the no-op cases cost only the branches.
//
//lint:hotpath span recording; see obs/alloc_test.go
func (t *Tracer) End(id SpanID) {
	if t == nil {
		return
	}
	if id == skippedSpan {
		t.skip--
		return
	}
	t.finish(id, -1, 0, false)
}

// EndPages closes the span and records its copy-batch size.
//
//lint:hotpath span recording; see obs/alloc_test.go
func (t *Tracer) EndPages(id SpanID, pages int) {
	if t == nil {
		return
	}
	if id == skippedSpan {
		t.skip--
		return
	}
	t.finish(id, pages, 0, false)
}

// EndArg closes the span and records its kind-specific attribute (the scan
// distance, known only once the scan finishes).
//
//lint:hotpath span recording; see obs/alloc_test.go
func (t *Tracer) EndArg(id SpanID, arg int64) {
	if t == nil {
		return
	}
	if id == skippedSpan {
		t.skip--
		return
	}
	t.finish(id, -1, arg, true)
}

//lint:hotpath span recording; see obs/alloc_test.go
func (t *Tracer) finish(id SpanID, pages int, arg int64, setArg bool) {
	if id == 0 {
		return // the nil tracer's handout; never guarded at call sites
	}
	end := t.now()
	var kind SpanKind
	var begin int64
	found := false
	for i := t.depth - 1; i >= 0; i-- {
		if t.stack[i].id == id {
			kind, begin, found = t.stack[i].kind, t.stack[i].begin, true
			t.depth = i // pop it and any orphaned descendants
			break
		}
	}
	slot := &t.ring[(uint64(id)-1)&t.mask]
	if slot.ID == id {
		slot.End = end
		if pages >= 0 {
			slot.Pages = pages
		}
		if setArg {
			slot.Arg = arg
		}
		if !found {
			kind, begin, found = slot.Kind, slot.Begin, true
		}
	}
	if !found {
		return // overwritten by a ring wrap and deeper than the stack kept
	}
	d := end - begin
	if d < 0 {
		d = 0
	}
	a := &t.stats[kind]
	a.count++
	a.sum += d
	if d > a.max {
		a.max = d
	}
	a.buckets[bits.Len64(uint64(d))%latencyBuckets]++
}

// Observe records an already-completed span with explicit begin and end
// clock readings, parented under the currently open span. It is how a stage
// whose duration elapsed before the recording goroutine saw it — a served
// request's queue wait — lands in the trace: the enqueuer stamps the begin
// reading from the same clock, and the dequeuing owner observes the span
// retroactively. The timestamps must come from the tracer's TraceClock (under
// the default deterministic tick pass equal values; the span then records
// order, not duration). Inside a sampled-away host tree the observation is
// skipped with the rest of the tree. Nil-safe like every Tracer method, and
// like them it must only be called from the goroutine that owns the tracer.
func (t *Tracer) Observe(kind SpanKind, block int, arg int64, begin, end int64) {
	if t == nil || t.skip > 0 {
		return
	}
	if end < begin {
		end = begin
	}
	t.seq++
	id := SpanID(t.seq)
	var parent SpanID
	if t.depth > 0 {
		parent = t.stack[t.depth-1].id
	}
	chip := 0
	if t.chipOf != nil {
		chip = t.chipOf(block)
	}
	t.ring[(t.seq-1)&t.mask] = Span{
		ID: id, Parent: parent, Kind: kind,
		Begin: begin, End: end, Block: block, Chip: chip, Arg: arg,
	}
	d := end - begin
	a := &t.stats[kind]
	a.count++
	a.sum += d
	if d > a.max {
		a.max = d
	}
	a.buckets[bits.Len64(uint64(d))%latencyBuckets]++
}

// Spans returns how many spans have been begun in total (including ones the
// ring has since overwritten). 0 on a nil tracer.
func (t *Tracer) Spans() int64 {
	if t == nil {
		return 0
	}
	return int64(t.seq)
}

// Dropped returns how many spans the ring has overwritten.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	if d := int64(t.seq) - int64(len(t.ring)); d > 0 {
		return d
	}
	return 0
}

// TraceSnapshot is an immutable copy of the ring's retained spans, oldest
// first. Total counts every span ever begun and Dropped the ones the ring
// overwrote; Total - Dropped == len(Spans).
type TraceSnapshot struct {
	Spans   []Span `json:"spans"`
	Total   int64  `json:"total"`
	Dropped int64  `json:"dropped"`
}

// Snapshot copies the retained spans in chronological (ID) order. Nil-safe:
// a nil tracer yields an empty snapshot.
func (t *Tracer) Snapshot() *TraceSnapshot {
	return t.SnapshotRecent(0)
}

// SnapshotRecent is Snapshot limited to the most recent max spans (0 or
// negative means all retained). The monitor publishes a bounded recent
// window each sample rather than the whole ring.
func (t *Tracer) SnapshotRecent(max int) *TraceSnapshot {
	if t == nil {
		return &TraceSnapshot{}
	}
	kept := t.seq
	if c := uint64(len(t.ring)); kept > c {
		kept = c
	}
	if max > 0 && kept > uint64(max) {
		kept = uint64(max)
	}
	snap := &TraceSnapshot{Total: int64(t.seq), Dropped: t.Dropped(), Spans: make([]Span, 0, kept)}
	for id := t.seq - kept + 1; id <= t.seq; id++ {
		snap.Spans = append(snap.Spans, t.ring[(id-1)&t.mask])
	}
	return snap
}

// StageLatency summarizes one span kind's duration distribution: counts and
// sums are exact, the percentiles are upper bounds of the power-of-two
// bucket the quantile lands in. Durations are nanoseconds under a wall
// clock and logical ticks under the deterministic default.
type StageLatency struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
	MaxNs int64 `json:"max_ns"`
	P50Ns int64 `json:"p50_ns"`
	P99Ns int64 `json:"p99_ns"`
}

// StageLatency returns the per-kind duration summaries for every kind that
// completed at least one span, keyed by the kind's snake_case name. Nil and
// span-free tracers return an empty (non-nil) map.
func (t *Tracer) StageLatency() map[string]StageLatency {
	out := map[string]StageLatency{}
	if t == nil {
		return out
	}
	for k := 0; k < numSpanKinds; k++ {
		a := &t.stats[k]
		if a.count == 0 {
			continue
		}
		out[SpanKind(k).String()] = StageLatency{
			Count: a.count,
			SumNs: a.sum,
			MaxNs: a.max,
			P50Ns: a.quantile(0.50),
			P99Ns: a.quantile(0.99),
		}
	}
	return out
}

// quantile returns the upper bound of the bucket the q-quantile lands in.
func (a *stageAgg) quantile(q float64) int64 {
	rank := int64(q * float64(a.count))
	if rank >= a.count {
		rank = a.count - 1
	}
	var seen int64
	for i, c := range a.buckets {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0
			}
			if i >= 63 {
				return a.max
			}
			upper := int64(1)<<uint(i) - 1
			if upper > a.max {
				upper = a.max
			}
			return upper
		}
	}
	return a.max
}
