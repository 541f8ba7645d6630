// Package workload synthesizes disk traces with the statistical profile the
// paper reports for its experiment trace (§5.1): one month of mobile-PC
// activity over the first 2,097,152 sectors of an NTFS disk, 36.62% of the
// LBAs written at least once, an average of 1.82 write and 1.97 read
// requests per second, hot data written in bursts (§5.3), and a cold
// majority — data written once (downloads, documents, installs) and then
// only read — several times larger than the hot set.
//
// The address space is divided into extents, each assigned a temperature:
//
//   - hot: a small slice of the written footprint receiving most ongoing
//     writes, in sequential bursts;
//   - warm: the rest of the ongoing writes;
//   - cold: filled once during an initial fill phase, then read-only;
//   - untouched: never written (the remaining ~63% of the disk).
//
// Every segment of the trace is generated deterministically from the model
// seed and the segment index, so the month-long base trace never has to be
// materialized: the paper's "virtually unlimited" derived trace re-samples
// 10-minute segments on demand. The sources this package builds are
// single-goroutine, seeded-deterministic, and seekable (trace.Seekable),
// so checkpointed runs resume mid-stream.
package workload

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"flashswl/internal/trace"
)

// Model describes a synthetic workload. The zero value is not valid; start
// from Paper() or PaperScaled() and override fields as needed.
type Model struct {
	// Sectors is the number of 512-byte sectors in scope.
	Sectors int64
	// ExtentSectors is the granularity of temperature assignment. Aligning
	// it to the flash block size (512 sectors on MLC×2) makes the logical
	// layout meaningful for the block-mapped NFTL as well.
	ExtentSectors int
	// Duration is the base trace length (the paper collected one month).
	Duration time.Duration
	// SegmentLen is the resampling granularity (the paper uses 10 min).
	SegmentLen time.Duration
	// WriteRate and ReadRate are average requests per second.
	WriteRate, ReadRate float64
	// WrittenFraction is the fraction of sectors written at least once.
	WrittenFraction float64
	// HotFraction and WarmFraction split the written footprint; the rest
	// of the footprint is cold (write-once). HotWriteRatio is the share of
	// ongoing writes aimed at the hot extents.
	HotFraction, WarmFraction float64
	// HotWriteRatio is the fraction of ongoing write requests that target
	// hot extents (the remainder hits warm extents).
	HotWriteRatio float64
	// MeanRequestSectors is the average request size.
	MeanRequestSectors int
	// BurstMean is the average number of back-to-back requests in a hot
	// write burst.
	BurstMean int
	// FillSegments is the number of leading segments across which the
	// cold footprint is written exactly once.
	FillSegments int
	// Seed drives all randomness; equal models generate equal traces.
	Seed int64
}

// Paper returns the model calibrated to the paper's reported workload
// statistics at full scale (1 GB of sectors in scope).
func Paper() Model {
	return Model{
		Sectors:            2_097_152,
		ExtentSectors:      512,
		Duration:           30 * 24 * time.Hour,
		SegmentLen:         10 * time.Minute,
		WriteRate:          1.82,
		ReadRate:           1.97,
		WrittenFraction:    0.3662,
		HotFraction:        0.10,
		WarmFraction:       0.15,
		HotWriteRatio:      0.85,
		MeanRequestSectors: 8,
		BurstMean:          6,
		FillSegments:       144, // one day of fill activity
		Seed:               1,
	}
}

// PaperScaled returns the paper model shrunk to a device with the given
// sector count, keeping every ratio. Request sizes, rates, and segment
// length stay unchanged: a smaller device simply wears faster, which is the
// point of scaled simulations.
func PaperScaled(sectors int64) Model {
	m := Paper()
	m.Sectors = sectors
	// Keep at least a handful of extents per class on tiny devices.
	for m.ExtentSectors > 64 && float64(sectors)/float64(m.ExtentSectors)*m.WrittenFraction*m.HotFraction < 4 {
		m.ExtentSectors /= 2
	}
	// Shrink the fill phase so the write-once footprint still fits in it.
	m.FillSegments = 24
	return m
}

// Validate reports whether the model is internally consistent.
func (m Model) Validate() error {
	switch {
	case m.Sectors <= 0:
		return fmt.Errorf("workload: %d sectors", m.Sectors)
	case m.ExtentSectors <= 0 || int64(m.ExtentSectors) > m.Sectors:
		return fmt.Errorf("workload: extent of %d sectors on %d", m.ExtentSectors, m.Sectors)
	case m.Duration <= 0 || m.SegmentLen <= 0 || m.SegmentLen > m.Duration:
		return fmt.Errorf("workload: duration %v / segment %v", m.Duration, m.SegmentLen)
	case m.WriteRate < 0 || m.ReadRate < 0 || m.WriteRate+m.ReadRate == 0:
		return fmt.Errorf("workload: rates %g/%g", m.WriteRate, m.ReadRate)
	case m.WrittenFraction <= 0 || m.WrittenFraction > 1:
		return fmt.Errorf("workload: written fraction %g", m.WrittenFraction)
	case m.HotFraction < 0 || m.WarmFraction < 0 || m.HotFraction+m.WarmFraction > 1:
		return fmt.Errorf("workload: hot %g + warm %g", m.HotFraction, m.WarmFraction)
	case m.HotWriteRatio < 0 || m.HotWriteRatio > 1:
		return fmt.Errorf("workload: hot write ratio %g", m.HotWriteRatio)
	case m.MeanRequestSectors <= 0 || m.BurstMean <= 0:
		return fmt.Errorf("workload: request %d / burst %d", m.MeanRequestSectors, m.BurstMean)
	case m.FillSegments < 0:
		return fmt.Errorf("workload: %d fill segments", m.FillSegments)
	}
	return nil
}

// Layout is the temperature assignment of extents, derived from the seed.
type Layout struct {
	ExtentSectors int
	Hot, Warm     []int64 // extent start sectors
	Cold          []int64
}

// Layout computes the deterministic extent classification.
func (m Model) Layout() Layout {
	nExtents := m.Sectors / int64(m.ExtentSectors)
	written := int64(float64(nExtents)*m.WrittenFraction + 0.5)
	if written < 3 {
		written = 3
	}
	if written > nExtents {
		written = nExtents
	}
	nHot := int64(float64(written)*m.HotFraction + 0.5)
	nWarm := int64(float64(written)*m.WarmFraction + 0.5)
	if nHot < 1 {
		nHot = 1
	}
	if nWarm < 1 {
		nWarm = 1
	}
	if nHot+nWarm > written {
		nWarm = written - nHot
	}
	rng := rand.New(rand.NewSource(m.Seed))
	perm := rng.Perm(int(nExtents))
	l := Layout{ExtentSectors: m.ExtentSectors}
	for i := int64(0); i < written; i++ {
		start := int64(perm[i]) * int64(m.ExtentSectors)
		switch {
		case i < nHot:
			l.Hot = append(l.Hot, start)
		case i < nHot+nWarm:
			l.Warm = append(l.Warm, start)
		default:
			l.Cold = append(l.Cold, start)
		}
	}
	return l
}

// Segments returns the number of segments in the base trace.
func (m Model) Segments() int { return int(m.Duration / m.SegmentLen) }

// Segment deterministically generates segment i (times relative to the
// segment start, sorted). Segments in the fill phase additionally carry the
// one-time sequential writes that lay down the cold footprint. The returned
// slice belongs to the caller.
func (m Model) Segment(i int) []trace.Event {
	g := segGen{m: m, layout: m.Layout()}
	return g.segment(i)
}

// segGen generates the segments of one source into buffers it reuses, so a
// source in steady state allocates nothing. The slice segment returns is
// valid until the next call (the trace.SegmentFunc contract); the buffers
// grow on first use, not at construction.
type segGen struct {
	m      Model
	layout Layout
	rng    *rand.Rand
	gen    []trace.Event // the segment in generation order
	out    []trace.Event // the segment in time order; what segment returns
	keys   []uint64
}

func (g *segGen) segment(i int) []trace.Event {
	m, l := &g.m, &g.layout
	seed := m.Seed*1_000_003 + int64(i)*7919 + 17
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(seed))
	} else {
		g.rng.Seed(seed) // restarts the stream rand.New(rand.NewSource(seed)) gives
	}
	rng := g.rng
	segSec := m.SegmentLen.Seconds()
	events := g.gen[:0]

	reqLen := func() int {
		n := 1 + rng.Intn(2*m.MeanRequestSectors-1)
		return n
	}
	randomIn := func(starts []int64) int64 {
		start := starts[rng.Intn(len(starts))]
		return start + int64(rng.Intn(m.ExtentSectors))
	}
	clampLen := func(lba int64, n int) int {
		if lba+int64(n) > m.Sectors {
			n = int(m.Sectors - lba)
		}
		if n < 1 {
			n = 1
		}
		return n
	}

	nW := m.countFor(m.WriteRate, segSec, rng)

	// Fill phase: write this segment's slice of the cold footprint once.
	// Fill requests count against the segment's write budget so the trace
	// still averages WriteRate requests per second over the month.
	if i < m.FillSegments && len(l.Cold) > 0 {
		perSeg := (len(l.Cold) + m.FillSegments - 1) / m.FillSegments
		lo := i * perSeg
		hi := lo + perSeg
		if hi > len(l.Cold) {
			hi = len(l.Cold)
		}
		for x := lo; x < hi; x++ {
			start := l.Cold[x]
			t := time.Duration(rng.Float64() * float64(m.SegmentLen))
			for off := 0; off < m.ExtentSectors; {
				n := clampLen(start+int64(off), reqLen())
				if off+n > m.ExtentSectors {
					n = m.ExtentSectors - off
				}
				events = append(events, trace.Event{Time: m.clampT(t), Op: trace.Write, LBA: start + int64(off), Count: n})
				off += n
				t += time.Millisecond
				nW--
			}
		}
	}

	// Ongoing writes: bursty on hot extents, single requests on warm. A
	// hot *burst* carries BurstMean requests on average, so the chance of
	// starting one is scaled down to keep the per-request hot share at
	// HotWriteRatio.
	hotBurstP := 0.0
	if h, b := m.HotWriteRatio, float64(m.BurstMean); h > 0 {
		hotBurstP = h / (h + b*(1-h))
	}
	for issued := 0; issued < nW; {
		t := time.Duration(rng.Float64() * float64(m.SegmentLen))
		if rng.Float64() < hotBurstP && len(l.Hot) > 0 {
			burst := 1 + rng.Intn(2*m.BurstMean-1)
			ext := l.Hot[rng.Intn(len(l.Hot))]
			lba := ext + int64(rng.Intn(m.ExtentSectors))
			for j := 0; j < burst && issued < nW; j++ {
				n := clampLen(lba, reqLen())
				if lba+int64(n) > ext+int64(m.ExtentSectors) {
					n = int(ext + int64(m.ExtentSectors) - lba)
				}
				events = append(events, trace.Event{Time: m.clampT(t), Op: trace.Write, LBA: lba, Count: n})
				lba += int64(n)
				if lba >= ext+int64(m.ExtentSectors) {
					// Sequential burst wraps to a fresh hot extent.
					ext = l.Hot[rng.Intn(len(l.Hot))]
					lba = ext
				}
				t += 2 * time.Millisecond
				issued++
			}
		} else if len(l.Warm) > 0 {
			lba := randomIn(l.Warm)
			n := clampLen(lba, reqLen())
			events = append(events, trace.Event{Time: m.clampT(t), Op: trace.Write, LBA: lba, Count: n})
			issued++
		} else {
			issued++ // degenerate model with no warm extents
		}
	}

	// Reads: mostly over the active data, partly over the cold archive
	// (movie playing and the like).
	nR := m.countFor(m.ReadRate, segSec, rng)
	for r := 0; r < nR; r++ {
		t := time.Duration(rng.Float64() * float64(m.SegmentLen))
		var lba int64
		switch {
		case rng.Float64() < 0.3 && len(l.Cold) > 0:
			lba = randomIn(l.Cold)
		case rng.Float64() < 0.5 && len(l.Warm) > 0:
			lba = randomIn(l.Warm)
		case len(l.Hot) > 0:
			lba = randomIn(l.Hot)
		default:
			lba = rng.Int63n(m.Sectors)
		}
		events = append(events, trace.Event{Time: m.clampT(t), Op: trace.Read, LBA: lba, Count: clampLen(lba, reqLen())})
	}

	g.gen = events
	return g.sorted()
}

// Packed sort keys: the generation index in the low idxBits bits, the time
// in the 63-idxBits bits above, bucketed by its top bucketBits bits.
const (
	idxBits    = 20
	bucketBits = 11
)

// sorted orders g.gen by time into g.out. A segment without equal timestamps
// has one sorted order, and sortedByKey finds it. A few segments do have
// ties (bursts clamped at the segment end by clampT), and the order inside a
// tie is whatever the comparison sort of earlier releases left, which every
// golden depends on: such a segment — and one the key packing has no room
// for — is sorted by that comparison sort, from generation order, instead.
func (g *segGen) sorted() []trace.Event {
	n := len(g.gen)
	g.out = slices.Grow(g.out[:0], n)[:n]
	if n >= 1<<idxBits || g.m.SegmentLen >= 1<<(63-idxBits) || !g.sortedByKey() {
		copy(g.out, g.gen)
		slices.SortFunc(g.out, func(a, b trace.Event) int { return cmp.Compare(a.Time, b.Time) })
	}
	return g.out
}

// sortedByKey sorts packed (time, generation index) keys and gathers g.gen
// into g.out through them. It gives up, reporting false, at the first pair of
// equal timestamps.
func (g *segGen) sortedByKey() bool {
	n := len(g.gen)
	g.keys = slices.Grow(g.keys[:0], 2*n)[:2*n]
	unsorted, keys := g.keys[:n], g.keys[n:]
	for j, e := range g.gen {
		unsorted[j] = uint64(e.Time)<<idxBits | uint64(j)
	}
	timeBits := max(bits.Len64(uint64(g.m.SegmentLen)), bucketBits) // clampT keeps times below SegmentLen
	sortKeys(keys, unsorted, idxBits+timeBits-bucketBits)
	for j, k := range keys {
		if j > 0 && k>>idxBits == keys[j-1]>>idxBits {
			return false
		}
		g.out[j] = g.gen[k&(1<<idxBits-1)]
	}
	return true
}

// sortKeys writes src to dst in increasing order; every key is below
// 1<<(shift+bucketBits). Event times are uniform draws, so a counting sort on
// the top bucketBits bits leaves each key within a few places of its own and
// an insertion pass finishes, in a fraction of the time a comparison sort
// spends mispredicting branches on random keys.
func sortKeys(dst, src []uint64, shift int) {
	var end [1 << bucketBits]int32 // end[b]: where bucket b's next key goes
	for _, k := range src {
		end[k>>shift]++
	}
	sum := int32(0)
	for b, c := range end {
		end[b] = sum
		sum += c
	}
	for _, k := range src {
		dst[end[k>>shift]] = k
		end[k>>shift]++
	}
	for i := 1; i < len(dst); i++ {
		k, j := dst[i], i
		for ; j > 0 && dst[j-1] > k; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = k
	}
}

// countFor converts a rate into an event count for a segment, dithering the
// fractional part so long traces match the rate exactly in expectation.
func (m Model) countFor(rate, segSec float64, rng *rand.Rand) int {
	x := rate * segSec
	n := int(x)
	if rng.Float64() < x-float64(n) {
		n++
	}
	return n
}

func (m Model) clampT(t time.Duration) time.Duration {
	if t >= m.SegmentLen {
		t = m.SegmentLen - time.Microsecond
	}
	if t < 0 {
		t = 0
	}
	return t
}

// seqSource streams the base trace segment by segment.
type seqSource struct {
	g    segGen
	seg  int
	nseg int
	cur  []trace.Event // aliases g's buffer: valid until the next g.segment
	pos  int
	base time.Duration
}

// Source returns the finite base trace (the "collected month") as a stream.
func (m Model) Source() trace.Source {
	return &seqSource{g: segGen{m: m, layout: m.Layout()}, nseg: m.Segments()}
}

// Next implements trace.Source.
//
//lint:hotpath per-event path; see TestSteadyStateSourcesAllocateNothing
func (s *seqSource) Next() (trace.Event, bool) {
	for s.pos >= len(s.cur) {
		if s.seg >= s.nseg {
			return trace.Event{}, false
		}
		//lint:ignore swlint/hotalloc once per segment; the scratch stops growing after the first few
		s.cur = s.g.segment(s.seg)
		s.pos = 0
		s.base = time.Duration(s.seg) * s.g.m.SegmentLen
		s.seg++
	}
	e := s.cur[s.pos]
	s.pos++
	e.Time += s.base
	return e, true
}

// Infinite returns the paper's "virtually unlimited" derived trace: the
// fill phase plays first in order (so the cold footprint exists on the
// device, as it did on the paper's real disk before the trace was
// collected), followed by an endless resampling of random segments of the
// base trace.
func (m Model) Infinite(seed int64) trace.Source {
	// The fill phase and the resampler each generate into a scratch of their
	// own, so restoring one's position never disturbs the other's segment.
	layout := m.Layout()
	g := &segGen{m: m, layout: layout}
	return &infiniteSource{
		fill:      &seqSource{g: segGen{m: m, layout: layout}, nseg: m.FillSegments},
		offset:    time.Duration(m.FillSegments) * m.SegmentLen,
		resampler: trace.NewResampler(g.segment, m.Segments(), m.SegmentLen, seed),
	}
}

// infiniteSource chains the fill phase with the segment resampler.
type infiniteSource struct {
	fill      *seqSource
	fillDone  bool
	offset    time.Duration
	resampler *trace.Resampler
}

// Next implements trace.Source; it never reports false.
//
//lint:hotpath per-event path; see TestSteadyStateSourcesAllocateNothing
func (s *infiniteSource) Next() (trace.Event, bool) {
	if !s.fillDone {
		//lint:ignore swlint/hotalloc only where seqSource.Next starts a segment
		if e, ok := s.fill.Next(); ok {
			return e, true
		}
		s.fillDone = true
	}
	//lint:ignore swlint/hotalloc only where Resampler.Next starts a segment
	e, _ := s.resampler.Next()
	e.Time += s.offset
	return e, true
}

// UniformSource is a structure-free workload: requests arrive at fixed
// rates with uniformly random sector addresses — no hot set, no cold set.
// It is the negative control for static wear leveling: with nothing pinned,
// dynamic wear leveling alone keeps blocks even and the SW Leveler should
// neither help nor hurt much.
type UniformSource struct {
	sectors  int64
	meanReq  int
	interval time.Duration
	writeP   float64
	seed     int64
	rng      *rand.Rand
	events   int64 // emitted so far, for replay-based state restore
	now      time.Duration
}

// NewUniform builds an infinite uniform source with the given request rates
// (per second) and mean request size in sectors.
func NewUniform(sectors int64, writeRate, readRate float64, meanReq int, seed int64) *UniformSource {
	total := writeRate + readRate
	if sectors <= 0 || total <= 0 || meanReq <= 0 {
		panic("workload: invalid uniform source shape")
	}
	return &UniformSource{
		sectors:  sectors,
		meanReq:  meanReq,
		interval: time.Duration(float64(time.Second) / total),
		writeP:   writeRate / total,
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Next implements trace.Source; the stream never ends.
func (u *UniformSource) Next() (trace.Event, bool) {
	op := trace.Read
	if u.rng.Float64() < u.writeP {
		op = trace.Write
	}
	n := 1 + u.rng.Intn(2*u.meanReq-1)
	lba := u.rng.Int63n(u.sectors)
	if lba+int64(n) > u.sectors {
		n = int(u.sectors - lba)
	}
	e := trace.Event{Time: u.now, Op: op, LBA: lba, Count: n}
	u.now += u.interval
	u.events++
	return e, true
}
