package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"time"
)

// layer is the module a span's self time is charged to. The driver layer is
// printed under the name of the driver the workload uses (ftl, nftl, dftl).
type layer uint8

const (
	layerWorkload layer = iota
	layerSim
	layerDriver
	layerNand
	layerCore
	layerBlockdev
	layerCache
	layerServe
	numLayers
)

// spanKind names one shimmed entry point. Every shim in shims.go brackets
// exactly one public function of the layer below it with one kind.
type spanKind uint8

const (
	spWorkloadNext spanKind = iota
	spSimEvent
	spDrvWrite
	spDrvRead
	spDrvEraseBlockSet
	spNandRead
	spNandProgram
	spNandErase
	spCoreOnErase
	spCoreNeedsLeveling
	spCoreLevel
	spBlockdevRead
	spBlockdevWrite
	spCacheRead
	spCacheWrite
	spServeTick
	numSpanKinds
)

var spanInfo = [numSpanKinds]struct {
	name  string
	layer layer
}{
	spWorkloadNext:      {"workload.next", layerWorkload},
	spSimEvent:          {"sim.event", layerSim},
	spDrvWrite:          {"driver.write_page", layerDriver},
	spDrvRead:           {"driver.read_page", layerDriver},
	spDrvEraseBlockSet:  {"driver.erase_block_set", layerDriver},
	spNandRead:          {"nand.read_page", layerNand},
	spNandProgram:       {"nand.program_page", layerNand},
	spNandErase:         {"nand.erase_block", layerNand},
	spCoreOnErase:       {"core.on_erase", layerCore},
	spCoreNeedsLeveling: {"core.needs_leveling", layerCore},
	spCoreLevel:         {"core.level", layerCore},
	spBlockdevRead:      {"blockdev.read_sectors", layerBlockdev},
	spBlockdevWrite:     {"blockdev.write_sectors", layerBlockdev},
	spCacheRead:         {"cache.read_sectors", layerCache},
	spCacheWrite:        {"cache.write_sectors", layerCache},
	spServeTick:         {"serve.tick", layerServe},
}

const (
	ringSize  = 1 << 16 // raw spans kept for -spans
	maxDepth  = 32      // deepest nesting seen is 7 (tick→level→set→on_erase…)
	gcRingLen = 1 << 16 // most recent GC-write durations kept for the p99
)

// rawSpan is one finished span as -spans dumps it. Spans of one host
// operation share Root, the ID of their outermost ancestor.
type rawSpan struct {
	Kind   spanKind
	ID     uint64
	Parent uint64 // 0 for a root span
	Root   uint64
	Start  int64 // ns since the tracer's epoch
	End    int64
}

type frame struct {
	kind     spanKind
	id       uint64
	start    int64
	children int64 // total duration of the direct children closed so far
}

// spanAgg accumulates one kind. Self is Total minus the time the kind's
// direct children covered.
type spanAgg struct {
	Calls int64
	Total int64
	Self  int64
}

// tracer is the benchmark's own span recorder. It lives on the one goroutine
// that drives the stack (main for replay, the actor for serve), so it needs
// no locking, and everything it touches per span is a fixed array: the traced
// pass allocates nothing per span.
type tracer struct {
	clock func() int64 // ns; monotonic wall time outside tests
	stack [maxDepth]frame
	depth int
	next  uint64
	agg   [numSpanKinds]spanAgg

	// first/last bound the traced timeline; rootTotal is the time covered
	// by depth-0 spans, so last-first-rootTotal is the time between them.
	first, last int64
	rootTotal   int64

	ring  [ringSize]rawSpan
	nring uint64

	// Counts the shims keep next to the spans, here so that reset clears
	// them and a copy of the tracer freezes them. erases counts chip erases;
	// the driver shim reads it around WritePage to tell a GC write from a
	// plain one, and keeps the GC writes' durations in gcRing. drvReads lets
	// the blockdev shim see whether a write read a page first.
	erases       int64
	gcRing       [gcRingLen]int // ns
	gcWrites     int64
	drvReads     int64
	bdevWrites   int64
	rmwWrites    int64
	pagesWritten int64
}

func newTracer() *tracer {
	epoch := time.Now()
	return &tracer{clock: func() int64 { return int64(time.Since(epoch)) }, first: -1}
}

// reset drops everything recorded so far (the serve pass calls it when the
// warm-up ends) but keeps the clock, so raw span times stay comparable.
func (t *tracer) reset() {
	*t = tracer{clock: t.clock, first: -1}
}

func (t *tracer) begin(k spanKind) {
	t.next++
	f := &t.stack[t.depth]
	t.depth++
	*f = frame{kind: k, id: t.next, start: t.clock()}
	if t.first < 0 {
		t.first = f.start
	}
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() int {
	end := t.clock()
	t.depth--
	f := &t.stack[t.depth]
	dur := end - f.start
	a := &t.agg[f.kind]
	a.Calls++
	a.Total += dur
	a.Self += dur - f.children
	s := rawSpan{Kind: f.kind, ID: f.id, Root: f.id, Start: f.start, End: end}
	if t.depth > 0 {
		p := &t.stack[t.depth-1]
		p.children += dur
		s.Parent = p.id
		s.Root = t.stack[0].id
	} else {
		t.rootTotal += dur
		t.last = end
	}
	t.ring[t.nring%ringSize] = s
	t.nring++
	return int(dur)
}

// layerSelf sums self time per layer.
func (t *tracer) layerSelf() [numLayers]int64 {
	var out [numLayers]int64
	for k := range t.agg {
		out[spanInfo[k].layer] += t.agg[k].Self
	}
	return out
}

// spans returns the ring's contents in completion order.
func (t *tracer) spans() []rawSpan {
	if t.nring <= ringSize {
		return slices.Clone(t.ring[:t.nring])
	}
	at := t.nring % ringSize // the oldest span
	return append(slices.Clone(t.ring[at:]), t.ring[:at]...)
}

// writeSpans dumps the raw spans of every traced workload as one JSON array,
// the driver layer under its real name.
func writeSpans(path string, selected []workload, results map[string]*outcome) error {
	type span struct {
		Workload string `json:"workload"`
		Name     string `json:"name"`
		ID       uint64 `json:"id"`
		Parent   uint64 `json:"parent"`
		Root     uint64 `json:"root"`
		Start    int64  `json:"start_ns"`
		End      int64  `json:"end_ns"`
	}
	all := []span{}
	for _, w := range selected {
		for _, s := range results[w.name()].spans {
			name := spanInfo[s.Kind].name
			if spanInfo[s.Kind].layer == layerDriver {
				name = w.driverName() + strings.TrimPrefix(name, "driver")
			}
			all = append(all, span{w.name(), name, s.ID, s.Parent, s.Root, s.Start, s.End})
		}
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
