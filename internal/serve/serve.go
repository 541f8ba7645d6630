// Package serve runs a driver+leveler stack as a concurrent block-device
// service without breaking the confinement contract that swlint enforces on
// chips and drivers: the stack is touched by one goroutine at a time.
//
// # Ownership
//
// The stack — chip, driver, leveler, blockdev.Device, optional cache — is
// built by the Config.Build factory inside New and from then on is owned
// through the Server's mutex: whoever holds it is, for that time, the one
// goroutine the contract allows, and each unlock/lock pair is the
// happens-before edge that hands the stack to the next holder. A caller
// that finds the stack free takes it and serves its own request on its own
// goroutine — no channel, no allocation, no second goroutine. A caller
// that finds it busy puts its request in a bounded queue (a channel of
// Config.QueueDepth; sending blocks when it is full, which is the server's
// backpressure) and parks on a pooled reply channel, so its buffer is
// handed over and not touched again until the reply establishes the edge
// back. A caller that queues when nobody is waiting for the stack yet is
// the waiter: it waits for the mutex itself, and once it has the stack
// serves what is queued.
//
// # Batching and coalescing
//
// A batch is what had queued when the waiter got the stack — its own
// request and those of the callers parked beside it, in arrival order —
// and callers do not overtake a queue that has someone parked in it, so
// under load batches grow (a lone waiter may be overtaken: that is faster
// for both). Within a batch, runs of consecutive write requests whose
// sector ranges abut front-to-back are coalesced into a single device write
// (one span, one page-aligned pass below, every constituent request
// acknowledged with the same result). Coalescing never reorders: only
// adjacent positions in arrival order merge, so a read queued between two
// writes still observes the first and not the second. A request served by a
// caller that found the stack free is a batch of one.
//
// # Observability
//
// Each request (or coalesced group) runs under a host_request span, with
// its queue_wait (submission to the start of service) recorded
// retroactively from the submit timestamp, and the cache/translate/GC
// spans of the work below nesting inside — the same five-signal story
// replayed traces get. See docs/serving.md.
package serve

import (
	"errors"
	"sync"
	"sync/atomic"

	"flashswl/internal/blockdev"
	"flashswl/internal/obs"
)

// ErrClosed is returned by every Server method after Close has begun.
var ErrClosed = errors.New("serve: server closed")

// Frontend is the sector device the server drives: a *cache.Cache, a bare
// *blockdev.Device, or anything shaped like one. It is only ever called
// with the stack owned, so implementations need no locking.
type Frontend interface {
	ReadSectors(lba int64, buf []byte) error
	WriteSectors(lba int64, buf []byte) error
	Sectors() int64
}

// Stack is what Config.Build returns: the assembled device stack plus its
// instrumentation. From the moment Build returns every field belongs to
// whichever goroutine owns the stack through the Server; nothing else may
// touch them.
type Stack struct {
	// Front serves reads and writes (required).
	Front Frontend
	// Flush pushes dirty state (cache lines, leveler bookkeeping) down to
	// the flash. Called for /flush requests and once at Close. Optional.
	Flush func() error
	// Tracer, when set, records host_request and queue_wait spans around
	// each request; pass the same tracer wired into the cache and driver
	// so their spans nest. Optional.
	Tracer *obs.Tracer
	// Registry, when set, receives the serve_* counters. Optional.
	Registry *obs.Registry
	// Tick runs after every batch, with the stack owned — the place to
	// publish monitor snapshots. Optional.
	Tick func()
	// Close tears the stack down (export traces, final snapshots) after
	// the final Flush. Optional.
	Close func() error
}

// Config configures a Server. Build is required.
type Config struct {
	// Build constructs the stack. It runs inside New, on New's goroutine,
	// and the Server takes ownership of what it returns; do not keep using
	// a chip or driver built in it except through Exec or after Close.
	Build func() (*Stack, error)
	// QueueDepth bounds the requests queued for a busy stack (default 64),
	// and with that the batch. Submissions block when it is reached.
	QueueDepth int
	// Clock stamps request submit times for queue_wait spans. It is
	// called from client goroutines concurrently, so it must be
	// thread-safe (time.Now-based, or an atomic counter in tests); it
	// should be the same clock the Stack's Tracer uses, or the spans it
	// times will not line up. Optional; without it (or without a Tracer)
	// no queue waits are recorded.
	Clock func() int64
}

// Stats counts server activity. Returned by value; safe to keep.
type Stats struct {
	// Requests counts submitted operations (reads, writes, flushes).
	Requests int64 `json:"requests"`
	// Batches counts batches served; Requests/Batches is the mean batch.
	Batches int64 `json:"batches"`
	// Coalesced counts write requests that were merged into a preceding
	// adjacent write instead of reaching the device on their own.
	Coalesced int64 `json:"coalesced"`
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opFlush
	opStats
	opExec
)

// request is one submitted operation; for opStats and opExec, stats or fn
// carry the payload. done carries the result back to a caller that queued
// its request; a caller that finds the stack free never sets it.
type request struct {
	op    opKind
	lba   int64
	buf   []byte
	enq   int64
	stats *Stats
	fn    func() error
	done  chan error
}

func (r *request) sectors() int64 { return int64(len(r.buf) / blockdev.SectorSize) }

// Server fronts one device stack. All methods are safe for concurrent use
// by any number of goroutines; the zero value is not usable, construct
// with New.
type Server struct {
	clock   func() int64
	sectors int64

	// own is ownership of the stack and of every field down to joined.
	own       sync.Mutex
	stack     *Stack // nil once Close has torn it down
	stats     Stats
	requests  *obs.Counter
	batches   *obs.Counter
	coalesced *obs.Counter
	batch     []request // the batch being served
	joined    []byte    // scratch for coalesced write payloads

	// reqs holds the requests of callers that found the stack busy, in
	// arrival order. Its capacity is QueueDepth.
	reqs    chan request
	waiter  atomic.Bool // someone is waiting for own and will serve reqs
	closed  atomic.Bool
	replies sync.Pool // of chan error, for callers that queue

	closing  sync.Once
	closeErr error
}

// New runs cfg.Build and returns a Server ready for concurrent callers (or
// Build's error).
func New(cfg Config) (*Server, error) {
	if cfg.Build == nil {
		return nil, errors.New("serve: Config.Build is required")
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	stack, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	s := &Server{
		sectors: stack.Front.Sectors(),
		stack:   stack,
		batch:   make([]request, 0, depth),
		reqs:    make(chan request, depth),
	}
	s.replies.New = func() any { return make(chan error, 1) }
	if stack.Tracer != nil {
		s.clock = cfg.Clock // queue waits are all it times
	}
	if reg := stack.Registry; reg != nil {
		s.requests = reg.Counter(obs.MetricServeRequests)
		s.batches = reg.Counter(obs.MetricServeBatches)
		s.coalesced = reg.Counter(obs.MetricServeCoalesced)
	}
	return s, nil
}

// Sectors returns the device capacity in sectors.
func (s *Server) Sectors() int64 { return s.sectors }

// submit serves the request and returns its result. A caller that finds the
// stack free serves it here, as a batch of one.
//
//lint:hotpath the uncontended request path; see alloc_test.go
func (s *Server) submit(r request) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.clock != nil {
		r.enq = s.clock()
	}
	// With callers parked behind a waiter, join them rather than overtake:
	// that is what forms a batch. A lone waiter is no reason to hold back;
	// it contends for the mutex as this caller does.
	if len(s.reqs) > 1 || !s.own.TryLock() {
		return s.submitBusy(r) // queues, may park: outside the contract
	}
	err := ErrClosed
	if s.stack != nil {
		s.count(1)
		err = s.serveOne(&r)
		s.tick()
	}
	s.own.Unlock()
	return err
}

// submitBusy is submit for a caller that found the stack busy: it queues
// the request (blocking while QueueDepth requests are queued — the
// backpressure) and parks until someone has served it. If nobody is waiting
// for the stack yet this caller is the waiter: it waits for the mutex
// itself — so a lone waiter costs no hand-off either — and serves what is
// queued, its own request included. No request is left behind: its sender
// either became the waiter or saw one, and a waiter gives the role up
// before it looks at reqs, so it sees everything queued before that.
func (s *Server) submitBusy(r request) error {
	r.done = s.replies.Get().(chan error)
	s.reqs <- r
	if s.waiter.CompareAndSwap(false, true) {
		s.own.Lock()
		s.waiter.Store(false)
		s.serveQueued()
		s.own.Unlock()
	}
	err := <-r.done
	s.replies.Put(r.done)
	return err
}

// Read fills buf from consecutive sectors starting at lba. buf must not be
// touched by the caller until Read returns.
func (s *Server) Read(lba int64, buf []byte) error {
	return s.submit(request{op: opRead, lba: lba, buf: buf})
}

// Write stores buf at consecutive sectors starting at lba. Whoever serves
// the request may read buf until Write returns; the caller must not mutate
// it before then.
func (s *Server) Write(lba int64, buf []byte) error {
	return s.submit(request{op: opWrite, lba: lba, buf: buf})
}

// Flush pushes dirty cache lines and leveler state to the flash, ordered
// after every write acknowledged before the call.
func (s *Server) Flush() error {
	return s.submit(request{op: opFlush})
}

// Stats returns the server's activity counters, ordered after all requests
// that were acknowledged before the call.
func (s *Server) Stats() (Stats, error) {
	var st Stats
	err := s.submit(request{op: opStats, stats: &st})
	return st, err
}

// Exec runs fn with the stack owned, ordered with the other requests, and
// returns its error. It is the only sanctioned way for other goroutines to
// touch the stack (cache statistics, ad-hoc inspection): no request runs
// while fn does, and values fn writes to shared locations are safely
// visible once Exec returns. fn must not call back into the Server — the
// stack is not free until fn returns, so that call would wait forever.
func (s *Server) Exec(fn func() error) error {
	return s.submit(request{op: opExec, fn: fn})
}

// Close stops accepting requests, serves those already queued, flushes,
// tears the stack down, and returns the first error from that shutdown
// sequence. Safe to call more than once; later calls return the same
// result.
func (s *Server) Close() error {
	s.closing.Do(func() {
		s.closed.Store(true)
		s.own.Lock()
		defer s.own.Unlock()
		s.serveQueued()
		if s.stack.Flush != nil {
			s.closeErr = s.stack.Flush()
		}
		if s.stack.Close != nil {
			if err := s.stack.Close(); s.closeErr == nil {
				s.closeErr = err
			}
		}
		// A caller that passed the closed check before it was set may
		// still queue a request; whoever serves it refuses it.
		s.stack = nil
	})
	return s.closeErr
}

// count accounts one batch of n requests.
//
//lint:hotpath once per batch
func (s *Server) count(n int) {
	s.stats.Batches++
	s.batches.Inc()
	s.stats.Requests += int64(n)
	s.requests.Add(int64(n))
}

// tick gives the stack's Tick hook its turn after a batch.
//
//lint:hotpath once per batch
func (s *Server) tick() {
	if s.stack.Tick != nil {
		s.stack.Tick()
	}
}

// serveQueued takes what is queued at this moment as one batch (QueueDepth
// requests at most) and serves it in arrival order.
func (s *Server) serveQueued() {
	batch := s.batch[:0]
drain:
	for len(batch) < cap(batch) {
		select {
		case r := <-s.reqs:
			batch = append(batch, r)
		default:
			break drain
		}
	}
	if s.stack == nil {
		for i := range batch {
			batch[i].done <- ErrClosed
		}
		return
	}
	if len(batch) == 0 {
		return // the previous owner's batch had this waiter's request in it
	}
	s.count(len(batch))
	for i := 0; i < len(batch); {
		r := &batch[i]
		// Coalesce the run of adjacent writes starting at i.
		j := i + 1
		if r.op == opWrite {
			end := r.lba + r.sectors()
			for j < len(batch) && batch[j].op == opWrite && batch[j].lba == end {
				end += batch[j].sectors()
				j++
			}
		}
		var err error
		if j == i+1 {
			err = s.serveOne(r)
		} else { // coalesced write run batch[i:j]
			s.joined = s.joined[:0]
			for k := i; k < j; k++ {
				s.joined = append(s.joined, batch[k].buf...)
			}
			merged := request{op: opWrite, lba: r.lba, buf: s.joined, enq: r.enq}
			err = s.serveOne(&merged)
			n := int64(j - i - 1)
			s.stats.Coalesced += n
			s.coalesced.Add(n)
			// Record the absorbed requests' queue waits too.
			if s.clock != nil {
				now := s.clock()
				for k := i + 1; k < j; k++ {
					s.stack.Tracer.Observe(obs.SpanQueueWait, -1, batch[k].lba, batch[k].enq, now)
				}
			}
		}
		for k := i; k < j; k++ {
			batch[k].done <- err
		}
		i = j
	}
	s.tick()
}

// serveOne runs one operation with the stack owned; a device operation
// runs under a host_request span, with the request's queue wait recorded
// first so it nests inside.
//
//lint:hotpath once per request or coalesced group; see alloc_test.go
func (s *Server) serveOne(r *request) error {
	switch r.op {
	case opStats:
		*r.stats = s.stats
		return nil
	case opExec:
		return r.fn()
	case opFlush:
		if s.stack.Flush == nil {
			return nil
		}
		return s.stack.Flush()
	}
	t := s.stack.Tracer
	span := t.Begin(obs.SpanHostRequest, -1, r.lba)
	if s.clock != nil {
		t.Observe(obs.SpanQueueWait, -1, r.lba, r.enq, s.clock())
	}
	var err error
	if r.op == opRead {
		err = s.stack.Front.ReadSectors(r.lba, r.buf)
	} else {
		err = s.stack.Front.WriteSectors(r.lba, r.buf)
	}
	t.EndPages(span, int(r.sectors()))
	return err
}
