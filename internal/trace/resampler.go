package trace

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"flashswl/internal/wire"
)

// SegmentFunc returns the events of segment i of a base trace, with times
// relative to the segment's start and in non-decreasing order. Segment
// indexes run [0, n) for a finite base trace.
//
// The returned slice is valid until the next call: an implementation may
// (and the ones in this module do) build every segment in one buffer it
// reuses. A caller reads the slice and neither writes to it nor keeps it
// across calls; the Resampler holds one segment at a time and asks for the
// next only once that one is played out.
type SegmentFunc func(i int) []Event

// Resampler implements the paper's "virtually unlimited trace" (§5.1): an
// endless stream derived from a finite base trace by repeatedly picking a
// random fixed-length segment (the paper uses 10 minutes) and splicing it
// onto the timeline.
type Resampler struct {
	segf    SegmentFunc
	nseg    int
	segLen  time.Duration
	seed    int64
	rng     *rand.Rand
	draws   int64   // Intn calls made, for replay-based state restore
	lastSeg int     // segment index behind cur (meaningful while cur != nil)
	cur     []Event // segf's buffer: valid until the next segf call
	pos     int
	base    time.Duration
}

// NewResampler builds an infinite source over nseg segments of length
// segLen, chosen by a deterministic RNG seeded with seed.
func NewResampler(segf SegmentFunc, nseg int, segLen time.Duration, seed int64) *Resampler {
	if nseg <= 0 || segLen <= 0 {
		panic("trace: resampler needs segments")
	}
	return &Resampler{segf: segf, nseg: nseg, segLen: segLen, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Next implements Source; it never reports false.
//
//lint:hotpath per-event path; see TestResamplingAllocatesNothing
func (r *Resampler) Next() (Event, bool) {
	for r.pos >= len(r.cur) {
		//lint:ignore swlint/hotalloc one draw per segment, and math/rand's Intn allocates nothing
		r.lastSeg = r.rng.Intn(r.nseg)
		r.draws++
		r.cur = r.segf(r.lastSeg)
		r.pos = 0
		if len(r.cur) == 0 {
			// Empty segment: the timeline still advances.
			r.base += r.segLen
		}
	}
	e := r.cur[r.pos]
	r.pos++
	e.Time += r.base
	if r.pos >= len(r.cur) {
		r.base += r.segLen
		r.cur = nil
	}
	return e, true
}

// SaveState implements Seekable. The math/rand generator offers no direct
// state export, so the record stores the number of Intn draws made; restore
// replays them against a fresh generator with the same seed — every draw
// uses the constant bound nseg, so the replayed sequence is identical.
// Keeping math/rand (rather than switching to an exportable generator)
// preserves the byte-identical golden traces of earlier releases.
func (r *Resampler) SaveState() ([]byte, error) {
	w := wire.NewWriter()
	w.U32(uint32(r.nseg))
	w.I64(int64(r.segLen))
	w.I64(r.draws)
	w.U32(uint32(r.lastSeg))
	w.Bool(r.cur != nil)
	w.U64(uint64(r.pos))
	w.I64(int64(r.base))
	return w.Bytes(), nil
}

// RestoreState implements Seekable. The receiver must have been built with
// the same segment set, segment length, and seed as the saved source.
func (r *Resampler) RestoreState(data []byte) error {
	rd := wire.NewReader(data)
	nseg := int(rd.U32())
	segLen := time.Duration(rd.I64())
	draws := rd.I64()
	lastSeg := int(rd.U32())
	curLive := rd.Bool()
	pos := int(rd.U64())
	base := time.Duration(rd.I64())
	if err := rd.Close(); err != nil {
		return fmt.Errorf("trace: resampler state: %w", err)
	}
	if nseg != r.nseg || segLen != r.segLen {
		return fmt.Errorf("trace: resampler state for %d segments of %v, have %d of %v",
			nseg, segLen, r.nseg, r.segLen)
	}
	if draws < 0 || lastSeg < 0 || lastSeg >= nseg || pos < 0 {
		return fmt.Errorf("trace: corrupt resampler state")
	}
	rng := rand.New(rand.NewSource(r.seed))
	for i := int64(0); i < draws; i++ {
		rng.Intn(r.nseg)
	}
	var cur []Event
	if curLive {
		cur = r.segf(lastSeg)
		if pos >= len(cur) {
			return fmt.Errorf("trace: resampler position %d beyond segment %d (%d events)",
				pos, lastSeg, len(cur))
		}
	}
	r.rng, r.draws, r.lastSeg, r.cur, r.pos, r.base = rng, draws, lastSeg, cur, pos, base
	return nil
}

// SliceSegments splits an in-memory trace into fixed-length segments and
// returns the SegmentFunc plus the segment count. Event times must be
// non-decreasing.
func SliceSegments(events []Event, segLen time.Duration) (SegmentFunc, int) {
	if segLen <= 0 {
		panic("trace: segment length must be positive")
	}
	var end time.Duration
	if n := len(events); n > 0 {
		end = events[n-1].Time
	}
	nseg := int(end/segLen) + 1
	// Segment boundaries are found by binary search at call time. The events
	// slice is shared; a segment's rebased copy is materialized lazily, into
	// one buffer that the next call overwrites (the SegmentFunc contract).
	var buf []Event
	segf := func(i int) []Event {
		lo := time.Duration(i) * segLen
		hi := lo + segLen
		start := sort.Search(len(events), func(j int) bool { return events[j].Time >= lo })
		stop := sort.Search(len(events), func(j int) bool { return events[j].Time >= hi })
		if start >= stop {
			return nil
		}
		buf = append(buf[:0], events[start:stop]...)
		for j := range buf {
			buf[j].Time -= lo
		}
		return buf
	}
	return segf, nseg
}
