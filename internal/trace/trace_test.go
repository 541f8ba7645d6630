package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ev(us int64, op Op, lba int64, n int) Event {
	return Event{Time: time.Duration(us) * time.Microsecond, Op: op, LBA: lba, Count: n}
}

func TestSliceSource(t *testing.T) {
	events := []Event{ev(0, Write, 1, 2), ev(5, Read, 3, 1)}
	s := NewSliceSource(events)
	for i := 0; i < 2; i++ {
		got, ok := s.Next()
		if !ok || got != events[i] {
			t.Fatalf("event %d = %+v,%v", i, got, ok)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("source must end")
	}
	s.Reset()
	if got, ok := s.Next(); !ok || got != events[0] {
		t.Fatal("Reset must rewind")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	events := []Event{
		ev(0, Write, 0, 1),
		ev(1500, Read, 123456, 8),
		ev(2_000_000, Write, 2_097_151, 16),
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, NewSliceSource(events)); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("got %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n100 W 5 2\n  \n# mid\n200 r 6 1\n"
	got, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Op != Write || got[1].Op != Read {
		t.Fatalf("got %+v", got)
	}
}

func TestReadTextErrors(t *testing.T) {
	bad := []string{
		"1 W 2",    // missing field
		"x W 2 1",  // bad time
		"-1 W 2 1", // negative time
		"1 Q 2 1",  // bad op
		"1 W -2 1", // negative lba
		"1 W 2 0",  // zero count
		"1 W 2 x",  // bad count
	}
	for _, line := range bad {
		if _, err := ReadText(strings.NewReader(line)); err == nil {
			t.Errorf("line %q parsed without error", line)
		}
	}
}

func TestSummarize(t *testing.T) {
	events := []Event{
		ev(0, Write, 0, 4),       // writes sectors 0..3
		ev(500_000, Write, 2, 4), // overlaps: 2..5 → unique 0..5
		ev(1_000_000, Read, 10, 2),
	}
	st := Summarize(NewSliceSource(events))
	if st.Events != 3 || st.Writes != 2 || st.Reads != 1 {
		t.Errorf("counts = %+v", st)
	}
	if st.UniqueLBAs != 6 {
		t.Errorf("UniqueLBAs = %d, want 6", st.UniqueLBAs)
	}
	if st.SectorsW != 8 || st.SectorsR != 2 {
		t.Errorf("sector totals = %d/%d", st.SectorsW, st.SectorsR)
	}
	if st.WriteRate != 2 || st.ReadRate != 1 {
		t.Errorf("rates = %g/%g over %v", st.WriteRate, st.ReadRate, st.Duration)
	}
}

func TestResamplerSplicesSegments(t *testing.T) {
	// Base trace: two 1-second segments, one event each.
	base := []Event{ev(100, Write, 1, 1), ev(1_000_200, Write, 2, 1)}
	segf, nseg := SliceSegments(base, time.Second)
	if nseg != 2 {
		t.Fatalf("nseg = %d, want 2", nseg)
	}
	r := NewResampler(segf, nseg, time.Second, 3)
	var last time.Duration = -1
	seen := map[int64]bool{}
	for i := 0; i < 50; i++ {
		e, ok := r.Next()
		if !ok {
			t.Fatal("resampler must be infinite")
		}
		if e.Time < last {
			t.Fatalf("time went backwards: %v after %v", e.Time, last)
		}
		last = e.Time
		seen[e.LBA] = true
	}
	if !seen[1] || !seen[2] {
		t.Errorf("resampler never picked both segments: %v", seen)
	}
	// 50 one-event segments must advance the clock by ~50 seconds.
	if last < 40*time.Second {
		t.Errorf("timeline advanced only to %v", last)
	}
}

func TestResamplerHandlesEmptySegments(t *testing.T) {
	// Segment 0 is empty; segment 1 has one event.
	base := []Event{ev(1_500_000, Write, 9, 1)}
	segf, nseg := SliceSegments(base, time.Second)
	if nseg != 2 {
		t.Fatalf("nseg = %d", nseg)
	}
	r := NewResampler(segf, nseg, time.Second, 1)
	for i := 0; i < 20; i++ {
		e, ok := r.Next()
		if !ok || e.LBA != 9 {
			t.Fatalf("event %d = %+v,%v", i, e, ok)
		}
	}
}

func TestSliceSegmentsBoundaries(t *testing.T) {
	base := []Event{ev(0, Write, 1, 1), ev(999_999, Write, 2, 1), ev(1_000_000, Write, 3, 1)}
	segf, nseg := SliceSegments(base, time.Second)
	if nseg != 2 {
		t.Fatalf("nseg = %d", nseg)
	}
	s0 := segf(0)
	if len(s0) != 2 || s0[0].LBA != 1 || s0[1].LBA != 2 {
		t.Errorf("segment 0 = %+v", s0)
	}
	s1 := segf(1)
	if len(s1) != 1 || s1[0].LBA != 3 || s1[0].Time != 0 {
		t.Errorf("segment 1 = %+v (times must be segment-relative)", s1)
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Error("Op strings wrong")
	}
}

// Property: the text codec round-trips arbitrary valid events.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(us uint32, w bool, lba uint32, n uint8) bool {
		op := Read
		if w {
			op = Write
		}
		in := []Event{ev(int64(us), op, int64(lba), int(n%63)+1)}
		var buf bytes.Buffer
		if err := WriteText(&buf, NewSliceSource(in)); err != nil {
			return false
		}
		out, err := ReadText(&buf)
		return err == nil && len(out) == 1 && out[0] == in[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestResamplingAllocatesNothing is the runtime half of the //lint:hotpath
// contract on Resampler.Next, over the file-trace SegmentFunc: once
// SliceSegments' buffer has held the longest segment, resampling allocates
// nothing. One measured run crosses many segments, so a per-segment
// allocation cannot average out to zero.
func TestResamplingAllocatesNothing(t *testing.T) {
	var base []Event
	for i := 0; i < 1000; i++ { // 10 segments of 100 events
		base = append(base, ev(int64(i)*10_000, Write, int64(i), 1))
	}
	segf, nseg := SliceSegments(base, time.Second)
	r := NewResampler(segf, nseg, time.Second, 1)
	for i := 0; i < len(base); i++ {
		r.Next()
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < len(base); i++ {
			r.Next()
		}
	})
	if allocs != 0 {
		t.Errorf("%.0f allocations per %d resampled events, want 0", allocs, len(base))
	}
}
