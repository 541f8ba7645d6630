package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flashswl/internal/blockdev"
	"flashswl/internal/nand"
	"flashswl/internal/serve/cache"
	"flashswl/internal/sim"
)

// benchServer is swlserve's default stack at the benchmark's size: FTL with
// the SW Leveler over 512 blocks × 32 pages × 2 KB, the runner's tracer and
// registry on the Stack, a wall clock, the leveler in Tick — and a
// cachePages-line cache when asked. The device is written once in full, so
// the cleaner is at work when the timer starts.
func benchServer(b *testing.B, cachePages int) *Server {
	const pageSize = 2048
	begin := time.Now()
	wall := func() int64 { return int64(time.Since(begin)) }
	srv, err := New(Config{Clock: wall, Build: func() (*Stack, error) {
		r, err := sim.NewRunner(sim.Config{
			Geometry:  nand.Geometry{Blocks: 512, PagesPerBlock: 32, PageSize: pageSize, SpareSize: 64},
			Cell:      nand.MLC2,
			Endurance: 1 << 30,
			Layer:     sim.FTL,
			SWL:       true,
			T:         16,
			Seed:      1,
			NoSpare:   true,
			StoreData: true,
			Metrics:   true, TraceSpans: 1 << 16, TraceClock: wall,
		})
		if err != nil {
			return nil, err
		}
		bdev, err := blockdev.New(r.Layer(), pageSize)
		if err != nil {
			return nil, err
		}
		st := &Stack{Front: bdev, Tracer: r.Tracer(), Registry: r.Registry()}
		if cachePages > 0 {
			c, err := cache.New(bdev, cache.Config{PageSize: pageSize, Pages: cachePages})
			if err != nil {
				return nil, err
			}
			c.SetTracer(st.Tracer)
			c.SetMetrics(st.Registry)
			st.Front, st.Flush = c, c.Flush
		}
		st.Tick = func() {
			if lv := r.Leveler(); lv != nil && lv.NeedsLeveling() {
				if err := lv.Level(); err != nil {
					b.Error(err)
				}
			}
		}
		return st, nil
	}})
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, 128*blockdev.SectorSize)
	for lba := int64(0); lba+128 <= srv.Sectors(); lba += 128 {
		if err := srv.Write(lba, chunk); err != nil {
			b.Fatal(err)
		}
	}
	return srv
}

// BenchmarkServeRoundTrip is the "serve queue round-trip" layer figure: b.N
// requests from n closed-loop goroutines through Server.Read/Write, in two
// shapes — a uniform mix of 1–3-sector reads and writes, each goroutine in
// its own part of the device, and single-sector writes at consecutive
// addresses drawn from a cursor the goroutines share (what coalescing is
// for) — without a cache and under 512 lines. batch_mean is
// Requests/Batches and coalesced/op the share of requests merged into a
// predecessor, both over the timed window. docs/serving.md has the table.
func BenchmarkServeRoundTrip(b *testing.B) {
	for _, shape := range []string{"mix", "adjacent"} {
		for _, cachePages := range []int{0, 512} {
			for _, n := range []int{1, 2, 8, 64} {
				b.Run(fmt.Sprintf("%s/cache%d/n%d", shape, cachePages, n), func(b *testing.B) {
					srv := benchServer(b, cachePages)
					sectors := srv.Sectors()
					var issued, cursor atomic.Int64
					client := func(id int) {
						rng := rand.New(rand.NewSource(int64(id)))
						buf := make([]byte, 3*blockdev.SectorSize)
						base, size := int64(id)*(sectors/int64(n)), sectors/int64(n)
						for issued.Add(1) <= int64(b.N) {
							var err error
							if shape == "adjacent" {
								err = srv.Write(cursor.Add(1)%sectors, buf[:blockdev.SectorSize])
							} else {
								count := int64(1 + rng.Intn(3))
								lba := base + rng.Int63n(size-count+1)
								if rng.Intn(2) == 0 {
									err = srv.Write(lba, buf[:count*blockdev.SectorSize])
								} else {
									err = srv.Read(lba, buf[:count*blockdev.SectorSize])
								}
							}
							if err != nil {
								b.Error(err)
								return
							}
						}
					}
					before, err := srv.Stats()
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					var wg sync.WaitGroup
					for id := 0; id < n; id++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							client(id)
						}()
					}
					wg.Wait()
					b.StopTimer()
					after, err := srv.Stats()
					if err != nil {
						b.Fatal(err)
					}
					// The second reading counts itself; take it out.
					b.ReportMetric(float64(after.Requests-before.Requests-1)/float64(after.Batches-before.Batches-1), "batch_mean")
					b.ReportMetric(float64(after.Coalesced-before.Coalesced)/float64(b.N), "coalesced/op")
					if err := srv.Close(); err != nil {
						b.Fatal(err)
					}
				})
			}
		}
	}
}
