package serve

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"flashswl/internal/blockdev"
	"flashswl/internal/obs"
)

// A caller is in one of three positions: the owner (found the stack free,
// serves itself), the waiter (first to find it busy, waits for the mutex and
// then serves the batch) or parked (found a waiter, queued behind it). The
// tests here put callers in each with hold and queueUp.

// countingFront counts device operations in a plain variable, so the race
// detector sees any two goroutines inside the stack at once.
type countingFront struct {
	Frontend
	ops *int
}

func (f countingFront) ReadSectors(lba int64, buf []byte) error {
	*f.ops++
	return f.Frontend.ReadSectors(lba, buf)
}

func (f countingFront) WriteSectors(lba int64, buf []byte) error {
	*f.ops++
	return f.Frontend.WriteSectors(lba, buf)
}

// TestExecExcludesRequests: an Exec closure runs with the stack owned — it
// and the requests of concurrent clients update the same plain variable,
// which is only correct (and only race-free) if none of them overlap.
func TestExecExcludesRequests(t *testing.T) {
	var cap capture
	cfg := testConfig(t, "ftl", 8, &cap)
	ops := 0
	build := cfg.Build
	cfg.Build = func() (*Stack, error) {
		st, err := build()
		if err == nil {
			st.Front = countingFront{st.Front, &ops}
		}
		return st, err
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 4, 200
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			buf := pattern(byte(cl), 1)
			for i := 0; i < perClient; i++ {
				var err error
				switch i % 3 {
				case 0:
					err = srv.Write(int64(cl)*spp, buf)
				case 1:
					err = srv.Read(int64(cl)*spp, buf)
				case 2:
					err = srv.Exec(func() error { ops++; return nil })
				}
				if err != nil {
					t.Errorf("client %d op %d: %v", cl, i, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	got := 0
	if err := srv.Exec(func() error { got = ops; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != clients*perClient {
		t.Errorf("%d updates counted, want %d: an update was lost to an overlap", got, clients*perClient)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQueueDepthBoundsTheQueue: with the stack held and QueueDepth callers
// waiting (the waiter and those parked behind it), the next caller blocks
// until the waiter takes its batch, and is served in a later one.
func TestQueueDepthBoundsTheQueue(t *testing.T) {
	const depth = 3
	var cap capture
	cfg := testConfig(t, "ftl", 0, &cap)
	cfg.QueueDepth = depth
	var stamps atomic.Int64 // submissions so far: nothing is served while the stack is held
	clock := cfg.Clock
	cfg.Clock = func() int64 { stamps.Add(1); return clock() }
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := hold(t, srv)
	var wg sync.WaitGroup
	errs := make([]error, depth+1)
	write := func(i int) func() {
		// Two pages apart: nothing coalesces.
		return func() { errs[i] = srv.Write(int64(2*i)*spp, pattern(byte(i), spp)) }
	}
	for i := 0; i < depth; i++ {
		queueUp(srv, &wg, write(i))
	}
	// One more caller. Once it has stamped its request it is committed:
	// the stack is held and the queue is full, so it can only wait.
	wg.Add(1)
	go func() {
		defer wg.Done()
		write(depth)()
	}()
	for stamps.Load() < 1+depth+1 {
		runtime.Gosched()
	}
	for i := 0; i < 100; i++ {
		runtime.Gosched()
		if n := srv.queued(); n != depth {
			t.Fatalf("%d requests queued, want QueueDepth = %d", n, depth)
		}
	}
	release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("write %d: %v", i, err)
		}
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// The held Exec, the batch of depth, the late caller alone, Stats.
	if want := (Stats{Requests: 1 + depth + 1 + 1, Batches: 4}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseWithCallersInEveryPosition: Close arrives while one caller owns
// the stack, one waits for it, two are parked and one is blocked by the
// QueueDepth bound. Nobody hangs; everyone queued before Close is served;
// the others are served or refused with ErrClosed; and exactly the
// acknowledged writes are on the backing device afterwards.
func TestCloseWithCallersInEveryPosition(t *testing.T) {
	var cap capture
	cfg := testConfig(t, "ftl", 8, &cap)
	cfg.QueueDepth = 3
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := hold(t, srv) // the owner
	var wg sync.WaitGroup
	errs := make([]error, 5)
	write := func(i int) func() {
		return func() { errs[i] = srv.Write(int64(2*i)*spp, pattern(byte(0x10+i), spp)) }
	}
	queueUp(srv, &wg, write(0)) // the waiter
	queueUp(srv, &wg, write(1)) // parked
	queueUp(srv, &wg, write(2)) // parked; the queue is full
	wg.Add(1)
	go func() { // blocked by the bound, or not there yet: either way not queued
		defer wg.Done()
		write(3)()
	}()
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	for !srv.closed.Load() {
		runtime.Gosched()
	}
	// Close has begun and cannot finish: the stack is still held.
	write(4)()
	if !errors.Is(errs[4], ErrClosed) {
		t.Errorf("Write after Close began = %v, want ErrClosed", errs[4])
	}
	release()
	wg.Wait()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			t.Errorf("write %d was queued before Close and got %v", i, errs[i])
		}
	}
	if errs[3] != nil && !errors.Is(errs[3], ErrClosed) {
		t.Errorf("write 3 = %v, want nil or ErrClosed", errs[3])
	}
	got := make([]byte, testPageSize)
	for i, werr := range errs {
		if err := cap.backing.ReadSectors(int64(2*i)*spp, got); err != nil {
			t.Fatal(err)
		}
		want := byte(0xFF) // refused: never written
		if werr == nil {
			want = byte(0x10 + i)
		}
		if got[0] != want || got[testPageSize-1] != want {
			t.Errorf("write %d returned %v and the backing device holds %#x, want %#x", i, werr, got[0], want)
		}
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

// TestQueueWaitIsSubmitToServiceStart pins the queue_wait span in every
// position with the tests' tick clock, which serve reads once at submit and
// once where service starts: an owner waits one tick; a waiter and the
// callers parked behind it wait from their own submit, through the hold, to
// their own turn in the batch — the absorbed half of a coalesced pair too.
func TestQueueWaitIsSubmitToServiceStart(t *testing.T) {
	var cap capture
	srv, err := New(testConfig(t, "ftl", 0, &cap))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Write(0, pattern(1, spp)); err != nil { // owner: ticks 1, 2
		t.Fatal(err)
	}
	release := hold(t, srv) // tick 3
	var wg sync.WaitGroup
	for _, page := range []int64{4, 8, 9} { // ticks 4, 5, 6; pages 8 and 9 coalesce
		lba := page * spp
		queueUp(srv, &wg, func() {
			if err := srv.Write(lba, pattern(2, spp)); err != nil {
				t.Error(err)
			}
		})
	}
	release() // service starts at ticks 7 and 8; the absorbed write is accounted at 9
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	type wait struct{ lba, begin, end int64 }
	var got []wait
	for _, sp := range cap.tracer.Snapshot().Spans {
		if sp.Kind == obs.SpanQueueWait {
			got = append(got, wait{sp.Arg, sp.Begin, sp.End})
		}
	}
	want := []wait{{0, 1, 2}, {4 * spp, 4, 7}, {8 * spp, 5, 8}, {9 * spp, 6, 9}}
	if len(got) != len(want) {
		t.Fatalf("queue_wait spans = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("queue_wait %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestConcurrentBackpressure keeps callers in every position at once: 16
// clients against a queue of 2, so most submissions find the queue full and
// wait for a batch to be taken. Every read must match its client's shadow,
// and the final image the combined one.
func TestConcurrentBackpressure(t *testing.T) {
	var cap capture
	cfg := testConfig(t, "ftl", 32, &cap)
	cfg.QueueDepth = 2
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 16
	region := srv.Sectors() / clients
	shadow := bytes.Repeat([]byte{0xFF}, int(srv.Sectors())*blockdev.SectorSize)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := clientWorkload(srv, shadow, int64(cl)*region, region, int64(cl)); err != nil {
				t.Errorf("client %d: %v", cl, err)
			}
		}()
	}
	wg.Wait()
	full := make([]byte, len(shadow))
	if err := srv.Read(0, full); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, shadow) {
		t.Error("server content diverged from the synchronous shadow")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
