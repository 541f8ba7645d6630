package workload

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"sort"
	"testing"
	"time"

	"flashswl/internal/trace"
)

// The tests in this file pin the generated event streams bit for bit. Their
// reference values were computed on the generator that sorted each segment
// with sort.Slice, before segment buffers were reused and the sort moved to
// packed keys; every experiment golden depends on these streams.

// benchSectors is the sector count of the benchmark's replay device (256
// blocks × 32 pages × 4 sectors at 88 % export).
const benchSectors = 28_832

// digestEvent folds one event into h as (Time u64 LE, Op byte, LBA u64 LE,
// Count u64 LE).
func digestEvent(h hash.Hash64, e trace.Event) {
	var b [25]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(e.Time))
	b[8] = byte(e.Op)
	binary.LittleEndian.PutUint64(b[9:], uint64(e.LBA))
	binary.LittleEndian.PutUint64(b[17:], uint64(e.Count))
	h.Write(b[:])
}

func seededModel(sectors, seed int64) Model {
	m := PaperScaled(sectors)
	m.Seed = seed
	return m
}

func TestInfiniteStreamDigest(t *testing.T) {
	const events = 3_000_000
	want := map[int64][]string{
		benchSectors: {"ee59b5f2bd9541f5", "0b78c194a1612fe5", "a9aae992c8d29888"},
		2_097_152:    {"c33e74be9a247447", "60e48d5b1bfaea17", "941e03618f113b10"},
	}
	for sectors, digests := range want {
		for i, ref := range digests {
			seed := int64(i + 1)
			t.Run(fmt.Sprintf("s=%d/seed=%d", sectors, seed), func(t *testing.T) {
				t.Parallel()
				src := seededModel(sectors, seed).Infinite(seed)
				h := fnv.New64a()
				for n := 0; n < events; n++ {
					e, _ := src.Next()
					digestEvent(h, e)
				}
				if got := fmt.Sprintf("%016x", h.Sum64()); got != ref {
					t.Errorf("digest of the first %d events = %s, want %s", events, got, ref)
				}
			})
		}
	}
}

// TestSourceStreamAndTieOrder walks the whole base month through
// Model.Source() and pins its digest plus, event by event, every run of
// equal timestamps. Ties come from hot bursts clamped at the segment end;
// the order inside one is whatever the comparison sort left, and it has to
// stay that way.
func TestSourceStreamAndTieOrder(t *testing.T) {
	cases := []struct {
		sectors int64
		digest  string
		ties    map[int]string // segment → "index: lba+count ..." of its tied run
	}{
		{benchSectors, "1142f8fcec444a97", map[int]string{
			758:  "2272: 12777+6 12783+5",
			812:  "2271: 1024+15 1039+2 1041+3",
			871:  "2272: 1060+4 1051+9",
			2521: "2268: 12612+5 12603+5 12608+4 12579+9 12588+12 12600+3",
			3962: "2270: 651+14 665+8 640+11 637+3",
			4001: "2270: 535+12 519+1 547+13 520+15",
			4129: "2268: 12589+12 12601+6 12607+2 12609+6 12615+10 12625+4",
			4172: "2272: 12617+9 12626+15",
		}},
		{2_097_152, "b9cdcc4ff412cef2", map[int]string{
			830:  "2268: 1080655+11 1080654+1 1080642+12 1080619+11 1080630+12 1080606+13",
			871:  "2272: 1072676+4 1072667+9",
			2295: "2270: 91524+14 91538+9 91547+2 91549+10",
			3962: "2270: 1849216+11 1849227+14 1849241+8 1849213+3",
			4001: "2270: 1848855+12 1848867+13 1848840+15 1848839+1",
			4129: "2268: 1089069+12 1089081+6 1089087+2 1089089+6 1089095+10 1089105+4",
			4172: "2272: 232274+15 232265+9",
		}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("s=%d", tc.sectors), func(t *testing.T) {
			t.Parallel()
			m := seededModel(tc.sectors, 1)
			src := m.Source()
			h := fnv.New64a()
			got := map[int]string{}
			var prev trace.Event
			seg, idx, tied := -1, 0, false
			for {
				e, ok := src.Next()
				if !ok {
					break
				}
				digestEvent(h, e)
				if s := int(e.Time / m.SegmentLen); s != seg {
					seg, idx = s, 0
				}
				if idx > 0 && e.Time == prev.Time {
					if !tied {
						if got[seg] != "" {
							got[seg] += "; "
						}
						got[seg] += fmt.Sprintf("%d: %d+%d", idx-1, prev.LBA, prev.Count)
					}
					got[seg] += fmt.Sprintf(" %d+%d", e.LBA, e.Count)
					tied = true
				} else {
					tied = false
				}
				prev = e
				idx++
			}
			if d := fmt.Sprintf("%016x", h.Sum64()); d != tc.digest {
				t.Errorf("Source() digest = %s, want %s", d, tc.digest)
			}
			if len(got) != len(tc.ties) {
				t.Errorf("%d tied segments, want %d", len(got), len(tc.ties))
			}
			for s, want := range tc.ties {
				if got[s] != want {
					t.Errorf("segment %d tie order = %q, want %q", s, got[s], want)
				}
			}
		})
	}
}

// drain returns the next n events of src.
func drain(src trace.Source, n int) []trace.Event {
	out := make([]trace.Event, n)
	for i := range out {
		out[i], _ = src.Next()
	}
	return out
}

// TestInfiniteSeekRoundTrip saves the derived trace at the positions where a
// source holds a segment in its reused buffer in a different way, restores
// each record into a fresh source, and requires the next events of both to
// be the ones an uninterrupted stream gives.
func TestInfiniteSeekRoundTrip(t *testing.T) {
	const after = 10_000 // events compared past each save point
	m := seededModel(benchSectors, 1)
	all := drain(m.Infinite(1), 420_000)
	fillEnd := time.Duration(m.FillSegments) * m.SegmentLen
	slot := func(e trace.Event) time.Duration { return e.Time / m.SegmentLen }

	// first returns the smallest n >= from at which cond(all[n-1], all[n])
	// holds: a source that has emitted n events stands between the two.
	first := func(from int, cond func(prev, next trace.Event) bool) int {
		for n := from; n < len(all)-after; n++ {
			if cond(all[n-1], all[n]) {
				return n
			}
		}
		t.Fatalf("no such position in the first %d events", len(all))
		return 0
	}
	endOfFill := first(1, func(_, next trace.Event) bool { return next.Time >= fillEnd })
	boundary := first(endOfFill+1, func(prev, next trace.Event) bool { return slot(prev) != slot(next) })
	points := map[string]int{
		"start":            0,
		"in the fill":      1000,
		"fill played out":  endOfFill,
		"segment boundary": boundary, // the resampler holds no segment
		"mid-segment":      boundary + 1000,
		"inside a tie":     first(endOfFill, func(prev, next trace.Event) bool { return prev.Time == next.Time }),
	}
	for name, n := range points {
		saved := m.Infinite(1).(trace.Seekable)
		drain(saved, n)
		state, err := saved.SaveState()
		if err != nil {
			t.Fatalf("%s: SaveState: %v", name, err)
		}
		fresh := m.Infinite(1).(trace.Seekable)
		if err := fresh.RestoreState(state); err != nil {
			t.Fatalf("%s: RestoreState: %v", name, err)
		}
		// Interleaved, so that either source writing into a buffer the other
		// reads would show.
		for i, want := range all[n : n+after] {
			a, _ := saved.Next()
			b, _ := fresh.Next()
			if a != want || b != want {
				t.Fatalf("%s (saved after %d events): event %d is %v continued, %v restored, want %v", name, n, n+i, a, b, want)
			}
		}
	}
}

// TestSortedMatchesReferenceSort compares every way segGen.sorted can order
// a segment with the sort it replaced, sort.Slice by time over the events in
// generation order, which is kept here as the reference.
func TestSortedMatchesReferenceSort(t *testing.T) {
	long := smallModel() // segments too long for the key packing
	long.Duration, long.SegmentLen = 9*time.Hour, 3*time.Hour
	dense := smallModel() // every burst runs into the segment end: mostly ties
	dense.SegmentLen, dense.WriteRate, dense.ReadRate = 5*time.Millisecond, 40_000, 40_000
	for name, tc := range map[string]struct {
		m    Model
		segs []int
	}{
		"tie-free":     {smallModel(), []int{0, 1, 5, 11}},
		"tied tail":    {seededModel(benchSectors, 1), []int{758, 2521, 4129}},
		"unpackable":   {long, []int{0, 2}},
		"mostly tied":  {dense, []int{0, 1, 7}},
		"single event": {func() Model { m := dense; m.WriteRate, m.ReadRate = 0, 200; return m }(), []int{5}},
	} {
		if err := tc.m.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := segGen{m: tc.m, layout: tc.m.Layout()}
		for _, i := range tc.segs {
			got := g.segment(i)
			want := slices.Clone(g.gen)
			sort.Slice(want, func(a, b int) bool { return want[a].Time < want[b].Time })
			if len(got) == 0 || !slices.Equal(got, want) {
				t.Errorf("%s: segment %d (%d events) differs from the reference sort", name, i, len(got))
			}
		}
	}
}
