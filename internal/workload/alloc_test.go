package workload

import (
	"testing"

	"flashswl/internal/trace"
)

// TestSteadyStateSourcesAllocateNothing is the runtime half of the
// //lint:hotpath contract on the sources' Next: once the segment scratch has
// grown to size, a stream allocates nothing — not per event and not per
// segment. One measured run pulls several segments, so a per-segment
// allocation cannot average out to zero.
func TestSteadyStateSourcesAllocateNothing(t *testing.T) {
	m := seededModel(benchSectors, 1)
	perSegment := len(m.Segment(m.FillSegments))
	for name, src := range map[string]trace.Source{"Infinite": m.Infinite(1), "Source": m.Source()} {
		drain(src, (m.FillSegments+8)*perSegment) // warm-up: past the fill, scratch grown
		allocs := testing.AllocsPerRun(20, func() {
			for i := 0; i < 4*perSegment; i++ {
				if _, ok := src.Next(); !ok {
					t.Fatal("source ended")
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per %d events in steady state, want 0", name, allocs, 4*perSegment)
		}
	}
}
