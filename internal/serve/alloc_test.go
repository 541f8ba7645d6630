package serve

import (
	"testing"

	"flashswl/internal/blockdev"
)

// TestUncontendedRequestAllocatesNothing is the runtime half of the
// //lint:hotpath contract on submit and serveOne: a caller that finds the
// stack free is served on its own goroutine without a reply channel or any
// other allocation, with the tracer and the registry on (queue_wait and
// host_request spans, the serve_* counters) — cached and uncached.
func TestUncontendedRequestAllocatesNothing(t *testing.T) {
	for _, cachePages := range []int{0, 8} {
		var cap capture
		srv, err := New(testConfig(t, "ftl", cachePages, &cap))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 2*blockdev.SectorSize)
		ops := map[string]func() error{
			"Write": func() error { return srv.Write(6, buf) },
			"Read":  func() error { return srv.Read(6, buf) },
		}
		for name, op := range ops {
			// Warm-up: the chip allocates a page's storage at its first
			// program, so go round the whole device first.
			for i := 0; i < 1000; i++ {
				if err := op(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := op(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("cache %d: uncontended %s allocates %.1f times, want 0", cachePages, name, allocs)
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
