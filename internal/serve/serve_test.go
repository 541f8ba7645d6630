package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"flashswl/internal/blockdev"
	"flashswl/internal/dftl"
	"flashswl/internal/ftl"
	"flashswl/internal/mtd"
	"flashswl/internal/nand"
	"flashswl/internal/nftl"
	"flashswl/internal/obs"
	"flashswl/internal/serve/cache"
)

const (
	testPageSize = 1024
	spp          = int64(testPageSize / blockdev.SectorSize) // sectors per page
)

// capture receives pointers into the stack from inside Build. Reading them
// is only safe from an Exec closure or after Close has returned (both own
// the stack, or come after its last owner).
type capture struct {
	backing *blockdev.Device
	cache   *cache.Cache
	tracer  *obs.Tracer
	reg     *obs.Registry
}

// testConfig builds a Config whose Build assembles chip → layer → blockdev
// (→ cache when cachePages > 0) inside New, with a tracer and registry
// wired through.
func testConfig(t *testing.T, layer string, cachePages int, cap *capture) Config {
	t.Helper()
	var tick int64
	return Config{
		QueueDepth: 8,
		Clock:      func() int64 { return atomic.AddInt64(&tick, 1) },
		Build: func() (*Stack, error) {
			chip := nand.New(nand.Config{
				Geometry:  nand.Geometry{Blocks: 32, PagesPerBlock: 8, PageSize: testPageSize, SpareSize: 32},
				StoreData: true,
			})
			dev := mtd.New(chip)
			var store blockdev.PageStore
			var err error
			switch layer {
			case "ftl":
				store, err = ftl.New(dev, ftl.Config{LogicalPages: 160})
			case "nftl":
				store, err = nftl.New(dev, nftl.Config{VirtualBlocks: 20})
			case "dftl":
				store, err = dftl.New(dev, dftl.Config{LogicalPages: 160})
			default:
				err = fmt.Errorf("unknown layer %q", layer)
			}
			if err != nil {
				return nil, err
			}
			bdev, err := blockdev.New(store, testPageSize)
			if err != nil {
				return nil, err
			}
			st := &Stack{
				Front:    bdev,
				Tracer:   obs.NewTracer(1<<14, nil),
				Registry: obs.NewRegistry(),
			}
			cap.backing, cap.tracer, cap.reg = bdev, st.Tracer, st.Registry
			if cachePages > 0 {
				c, err := cache.New(bdev, cache.Config{
					PageSize: testPageSize, Pages: cachePages, Assoc: 4,
				})
				if err != nil {
					return nil, err
				}
				c.SetTracer(st.Tracer)
				c.SetMetrics(st.Registry)
				cap.cache = c
				st.Front = c
				st.Flush = c.Flush
			}
			return st, nil
		},
	}
}

// TestConcurrentDifferential drives several concurrent clients over
// disjoint sector regions for every layer, cached and uncached. Each
// client checks every read against its own synchronous shadow; afterwards
// the server's full content, and the backing device's content once Close
// has flushed, must equal the combined shadow byte for byte.
func TestConcurrentDifferential(t *testing.T) {
	for _, layer := range []string{"ftl", "nftl", "dftl"} {
		for _, cachePages := range []int{0, 32} {
			t.Run(fmt.Sprintf("%s/c%d", layer, cachePages), func(t *testing.T) {
				var cap capture
				srv, err := New(testConfig(t, layer, cachePages, &cap))
				if err != nil {
					t.Fatal(err)
				}
				const clients = 4
				sectors := srv.Sectors()
				region := sectors / clients
				shadow := bytes.Repeat([]byte{0xFF}, int(sectors)*blockdev.SectorSize)
				var wg sync.WaitGroup
				errs := make([]error, clients)
				for cl := 0; cl < clients; cl++ {
					wg.Add(1)
					go func(cl int) {
						defer wg.Done()
						errs[cl] = clientWorkload(srv, shadow, int64(cl)*region, region, int64(cl))
					}(cl)
				}
				wg.Wait()
				for cl, err := range errs {
					if err != nil {
						t.Fatalf("client %d: %v", cl, err)
					}
				}
				if err := srv.Flush(); err != nil {
					t.Fatal(err)
				}
				full := make([]byte, len(shadow))
				if err := srv.Read(0, full); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(full, shadow) {
					t.Error("server content diverged from the synchronous shadow")
				}
				st, err := srv.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if st.Requests == 0 || st.Batches == 0 {
					t.Errorf("stats = %+v, want activity", st)
				}
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				// After Close nobody owns the stack; the backing device
				// (below any cache) must hold the flushed image.
				back := make([]byte, len(shadow))
				if err := cap.backing.ReadSectors(0, back); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(back, shadow) {
					t.Error("backing device diverged from the shadow after Close")
				}
				// There is a host_request span per device operation and a
				// queue_wait for every request.
				lat := cap.tracer.StageLatency()
				if lat[obs.SpanHostRequest.String()].Count == 0 {
					t.Error("no host_request spans recorded")
				}
				if qw := lat[obs.SpanQueueWait.String()].Count; qw < st.Requests-2 {
					t.Errorf("queue_wait spans = %d, want ~%d", qw, st.Requests)
				}
				snap := cap.reg.Snapshot()
				if got := snap.Counters[obs.MetricServeRequests]; got != st.Requests {
					t.Errorf("%s = %d, want %d", obs.MetricServeRequests, got, st.Requests)
				}
				if got := snap.Counters[obs.MetricServeBatches]; got != st.Batches {
					t.Errorf("%s = %d, want %d", obs.MetricServeBatches, got, st.Batches)
				}
			})
		}
	}
}

// clientWorkload runs one client's random mixed reads and writes inside
// its exclusive [base, base+size) sector region, checking every read
// against shadow (which it owns for that region).
func clientWorkload(srv *Server, shadow []byte, base, size, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 300; i++ {
		count := int64(1 + rng.Intn(4))
		lba := base + rng.Int63n(size-count)
		buf := make([]byte, count*blockdev.SectorSize)
		off := lba * blockdev.SectorSize
		switch rng.Intn(3) {
		case 0, 1:
			for j := range buf {
				buf[j] = byte(rng.Intn(256))
			}
			if err := srv.Write(lba, buf); err != nil {
				return fmt.Errorf("op %d write: %w", i, err)
			}
			copy(shadow[off:], buf)
		case 2:
			if err := srv.Read(lba, buf); err != nil {
				return fmt.Errorf("op %d read: %w", i, err)
			}
			if !bytes.Equal(buf, shadow[off:off+int64(len(buf))]) {
				return fmt.Errorf("op %d: read [%d,+%d) diverged from shadow", i, lba, count)
			}
		}
	}
	return nil
}

// TestZeroLengthOps covers the empty-buffer edge on every path.
func TestZeroLengthOps(t *testing.T) {
	var cap capture
	srv, err := New(testConfig(t, "ftl", 8, &cap))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Read(0, nil); err != nil {
		t.Errorf("zero-length read: %v", err)
	}
	if err := srv.Write(5, nil); err != nil {
		t.Errorf("zero-length write: %v", err)
	}
	if err := srv.Read(srv.Sectors(), nil); err != nil {
		t.Errorf("zero-length read at end: %v", err)
	}
}

// hold occupies the stack with an Exec — a caller in the owner position —
// until the returned release is called (from the test's goroutine); release
// returns once that Exec has.
func hold(t *testing.T, srv *Server) (release func()) {
	t.Helper()
	entered := make(chan struct{})
	leave := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- srv.Exec(func() error {
			close(entered)
			<-leave
			return nil
		})
	}()
	<-entered
	return func() {
		t.Helper()
		close(leave)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// queueUp runs op on its own goroutine and returns once its request waits
// for the held stack: the first such caller is the waiter, later ones park
// behind it. Waiting for each to land before starting the next fixes the
// arrival order, and with it the batch.
func queueUp(srv *Server, wg *sync.WaitGroup, op func()) {
	before := srv.queued()
	wg.Add(1)
	go func() {
		defer wg.Done()
		op()
	}()
	for srv.queued() == before {
		runtime.Gosched()
	}
}

// queued is how many requests wait for a busy stack: the waiter's and those
// parked behind it.
func (s *Server) queued() int { return len(s.reqs) }

func pattern(v byte, sectors int64) []byte {
	return bytes.Repeat([]byte{v}, int(sectors*blockdev.SectorSize))
}

// TestCoalescing holds the stack with an Exec, queues three adjacent writes
// plus one non-adjacent one, and releases: the adjacent run must merge into
// a single device write (2 coalesced) without reordering.
func TestCoalescing(t *testing.T) {
	var cap capture
	srv, err := New(testConfig(t, "ftl", 0, &cap))
	if err != nil {
		t.Fatal(err)
	}
	release := hold(t, srv)

	var wg sync.WaitGroup
	writeErrs := make([]error, 4)
	enqueue := func(idx int, lba int64, buf []byte) {
		queueUp(srv, &wg, func() { writeErrs[idx] = srv.Write(lba, buf) })
	}
	enqueue(0, 0, pattern(0x01, spp))
	enqueue(1, spp, pattern(0x02, spp))
	enqueue(2, 2*spp, pattern(0x03, spp))
	enqueue(3, 10*spp, pattern(0x04, spp)) // not adjacent: served alone

	release()
	wg.Wait()
	for i, err := range writeErrs {
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Coalesced != 2 {
		t.Errorf("Coalesced = %d, want 2", st.Coalesced)
	}
	got := make([]byte, 4*spp*blockdev.SectorSize)
	if err := srv.Read(0, got[:3*spp*blockdev.SectorSize]); err != nil {
		t.Fatal(err)
	}
	if err := srv.Read(10*spp, got[3*spp*blockdev.SectorSize:]); err != nil {
		t.Fatal(err)
	}
	for i, want := range []byte{0x01, 0x02, 0x03, 0x04} {
		off := int64(i) * spp * blockdev.SectorSize
		if got[off] != want || got[off+spp*blockdev.SectorSize-1] != want {
			t.Errorf("write %d content = %#x, want %#x", i, got[off], want)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushAndPowerCut asserts the dirty-loss contract through the server:
// a power cut (cache.Drop via Exec) loses exactly the writes since the
// last Flush.
func TestFlushAndPowerCut(t *testing.T) {
	var cap capture
	srv, err := New(testConfig(t, "ftl", 16, &cap))
	if err != nil {
		t.Fatal(err)
	}
	page := func(v byte) []byte { return bytes.Repeat([]byte{v}, testPageSize) }
	for p := int64(0); p < 8; p++ {
		if err := srv.Write(p*spp, page(byte(0xA0+p))); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int64{2, 5} {
		if err := srv.Write(p*spp, page(0xEE)); err != nil {
			t.Fatal(err)
		}
	}
	var dirty []int64
	if err := srv.Exec(func() error {
		dirty = cap.cache.DirtyLines()
		cap.cache.Drop()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 2 || dirty[0] != 2 || dirty[1] != 5 {
		t.Fatalf("dirty lines at the cut = %v, want [2 5]", dirty)
	}
	buf := make([]byte, testPageSize)
	for p := int64(0); p < 8; p++ {
		if err := srv.Read(p*spp, buf); err != nil {
			t.Fatal(err)
		}
		if want := byte(0xA0 + p); buf[0] != want {
			t.Errorf("page %d after power cut = %#x, want %#x", p, buf[0], want)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseSemantics pins shutdown: queued work drains, the final flush
// reaches the backing device, later submissions fail with ErrClosed, and
// repeated Close returns the same result.
func TestCloseSemantics(t *testing.T) {
	var cap capture
	srv, err := New(testConfig(t, "ftl", 8, &cap))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x77}, testPageSize)
	if err := srv.Write(0, payload); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, testPageSize)
	if err := cap.backing.ReadSectors(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("write before Close did not reach the backing device")
	}
	if err := srv.Write(0, payload); !errors.Is(err, ErrClosed) {
		t.Errorf("Write after Close = %v, want ErrClosed", err)
	}
	if err := srv.Read(0, got); !errors.Is(err, ErrClosed) {
		t.Errorf("Read after Close = %v, want ErrClosed", err)
	}
	if err := srv.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after Close = %v, want ErrClosed", err)
	}
	if _, err := srv.Stats(); !errors.Is(err, ErrClosed) {
		t.Errorf("Stats after Close = %v, want ErrClosed", err)
	}
	if err := srv.Exec(func() error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Exec after Close = %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close = %v, want nil again", err)
	}
}

// TestErrorPropagation: device errors reach every constituent of a
// coalesced group and lone requests alike.
func TestErrorPropagation(t *testing.T) {
	var cap capture
	srv, err := New(testConfig(t, "ftl", 0, &cap))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var se *blockdev.SectorError
	if err := srv.Read(srv.Sectors(), make([]byte, blockdev.SectorSize)); !errors.As(err, &se) {
		t.Errorf("out-of-range read = %v, want *blockdev.SectorError", err)
	}
	if err := srv.Write(0, make([]byte, 100)); !errors.As(err, &se) {
		t.Errorf("unaligned write = %v, want *blockdev.SectorError", err)
	}
}

// TestBuildError: a failing Build surfaces from New.
func TestBuildError(t *testing.T) {
	boom := errors.New("boom")
	if _, err := New(Config{Build: func() (*Stack, error) { return nil, boom }}); !errors.Is(err, boom) {
		t.Fatalf("New = %v, want boom", err)
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil Build accepted")
	}
}
