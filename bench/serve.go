package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"flashswl/internal/blockdev"
	"flashswl/internal/core"
	"flashswl/internal/mtd"
	"flashswl/internal/nand"
	"flashswl/internal/obs"
	"flashswl/internal/serve"
	"flashswl/internal/serve/cache"
	"flashswl/internal/sim"
	"flashswl/internal/stats"
)

// Serve constants: ISSUE 11's device and leveler; the request budgets in
// workloads.go are the issue's divided by scaleDown, like the replay
// endurance.
const (
	serveEndurance = 1 << 30
	serveT         = 16
	numClients     = 2
	warmupShare    = 10 // set-up issues 1/warmupShare of the budget as warm-up
	minHitRatio    = 0.9
)

var serveGeometry = nand.Geometry{Blocks: 512, PagesPerBlock: 32, PageSize: 2048, SpareSize: 64}

// serveWorkload is a fixed budget of requests from two closed-loop clients
// against a serve.Server over an FTL stack wired as cmd/swlserve wires it.
type serveWorkload struct {
	id         string
	reason     string
	cachePages int // 0: no cache, the block device is the frontend
	requests   int // per repetition, both clients together
	maxSectors int
	hotPages   int // size of the hot region, 0 for uniform addresses
	hotPct     int
}

func (w *serveWorkload) name() string       { return w.id }
func (w *serveWorkload) why() string        { return w.reason }
func (w *serveWorkload) driverName() string { return "ftl" }

// stackView is how the benchmark looks at the actor-owned stack. Build fills
// it in on the actor goroutine; afterwards it is only used inside
// Server.Exec.
type stackView struct {
	programs    func() int64
	eraseCounts func() []int
	cache       *cache.Cache // nil without one

	// Traced pass only.
	counts func() driverCounts
	resets func() int64 // BET resets so far
}

// reading is the stack's cumulative activity at one moment.
type reading struct {
	programs int64
	cache    cache.Stats
	counts   driverCounts
	resets   int64
}

func (v *stackView) read() reading {
	r := reading{programs: v.programs()}
	if v.cache != nil {
		r.cache = v.cache.Stats()
	}
	if v.counts != nil {
		r.counts, r.resets = v.counts(), v.resets()
	}
	return r
}

// start brings a server up. With t == nil the Build closure is cmd/swlserve's
// (main.go: the sim.Config literal, the wall clock handed to TraceClock and
// serve.Config.Clock, and the body of Build: sim.NewRunner, blockdev.New,
// the Stack with the runner's tracer and registry, cache.New with SetTracer
// and SetMetrics, Front/Flush, and the leveler in Tick), less the monitor
// publishing. With a tracer it assembles the same stack by hand so that a
// shim can sit at each boundary. Switch both to stack.Build when ROADMAP
// item 3 lands.
func (w *serveWorkload) start(seed int64, t *tracer) (*serve.Server, *stackView, error) {
	begin := time.Now()
	wall := func() int64 { return int64(time.Since(begin)) }
	view := &stackView{}
	pageSize := serveGeometry.PageSize

	// front finishes a Stack whose tracer and registry are set: the block
	// device is the frontend unless the workload has a cache to put over it.
	front := func(stack *serve.Stack, bdev sectorDevice) error {
		stack.Front = bdev
		if w.cachePages == 0 {
			return nil
		}
		c, err := cache.New(bdev, cache.Config{PageSize: pageSize, Pages: w.cachePages})
		if err != nil {
			return err
		}
		c.SetTracer(stack.Tracer)
		c.SetMetrics(stack.Registry)
		view.cache = c
		stack.Front = c
		stack.Flush = c.Flush
		return nil
	}

	build := func() (*serve.Stack, error) {
		r, err := sim.NewRunner(sim.Config{
			Geometry:   serveGeometry,
			Cell:       nand.MLC2,
			Endurance:  serveEndurance,
			Layer:      sim.FTL,
			SWL:        true,
			K:          0,
			T:          serveT,
			Seed:       seed,
			NoSpare:    true,
			StoreData:  true,
			Metrics:    true,
			TraceSpans: 1 << 16,
			TraceClock: wall,
		})
		if err != nil {
			return nil, err
		}
		bdev, err := blockdev.New(r.Layer(), pageSize)
		if err != nil {
			return nil, err
		}
		stack := &serve.Stack{Tracer: r.Tracer(), Registry: r.Registry()}
		if err := front(stack, bdev); err != nil {
			return nil, err
		}
		stack.Tick = func() {
			if lv := r.Leveler(); lv != nil && lv.NeedsLeveling() {
				_ = lv.Level()
			}
		}
		view.programs = func() int64 { return r.Chip().Stats().Programs }
		view.eraseCounts = func() []int { return r.DeviceEraseCounts(nil) }
		return stack, nil
	}

	if t != nil {
		build = func() (*serve.Stack, error) {
			// sim.NewRunner's wiring for Metrics + TraceSpans (sim.go and
			// obs.go: buildSinks, chipObserveHook), with the shims between.
			tracer := obs.NewTracer(1<<16, wall)
			reg := obs.NewRegistry()
			episodes := obs.NewEpisodeBuilder(func() time.Duration { return 0 }, func(obs.Episode) {})
			sink := obs.Combine(episodes, obs.NewMetricsSink(reg))
			reads := reg.Counter(obs.MetricChipReads)
			programs := reg.Counter(obs.MetricChipPrograms)
			erases := reg.Counter(obs.MetricChipErases)
			chip := nand.New(nand.Config{
				Geometry:  serveGeometry,
				Cell:      nand.MLC2,
				Endurance: serveEndurance,
				StoreData: true,
				ObserveHook: func(op nand.Op, _, _ int) {
					switch op {
					case nand.OpRead:
						reads.Inc()
					case nand.OpProgram:
						programs.Inc()
					case nand.OpErase:
						erases.Inc()
					}
				},
			})
			inner, counts, err := newDriver("ftl", mtd.New(&chipShim{t, chip}), 0)
			if err != nil {
				return nil, err
			}
			inner.SetObserver(sink)
			inner.SetTracer(tracer)
			drv := &driverShim{t, inner}
			lv, err := core.NewLevelerByName("swl", core.BuildConfig{
				Blocks:    serveGeometry.Blocks,
				K:         0,
				Threshold: serveT,
				Select:    core.SelectCyclic,
				Rand:      core.NewSplitMix64(uint64(seed)),
				Chips:     1,
				Observer:  sink,
				Tracer:    tracer,
			}, drv)
			if err != nil {
				return nil, err
			}
			lev := &levelerShim{t, lv}
			inner.SetOnErase(lev.OnErase)
			dev, err := blockdev.New(drv, pageSize)
			if err != nil {
				return nil, err
			}
			stack := &serve.Stack{Tracer: tracer, Registry: reg}
			bdev := &blockdevShim{sectorShim{t, dev, spBlockdevRead, spBlockdevWrite}}
			if err := front(stack, bdev); err != nil {
				return nil, err
			}
			if view.cache != nil {
				stack.Front = &sectorShim{t, view.cache, spCacheRead, spCacheWrite}
			}
			stack.Tick = func() {
				t.begin(spServeTick)
				if lev.NeedsLeveling() {
					_ = lev.Level()
				}
				t.end()
			}
			view.programs = func() int64 { return chip.Stats().Programs }
			view.eraseCounts = func() []int { return chip.EraseCounts(nil) }
			view.counts = counts
			view.resets = func() int64 { return lv.Stats().Resets }
			return stack, nil
		}
	}

	srv, err := serve.New(serve.Config{Clock: wall, Build: build})
	return srv, view, err
}

// clients splits the sector space in page-aligned halves, one per client,
// each with its share of the hot region at the start of its half.
func (w *serveWorkload) clients(seed int64, sectors int64) []*client {
	spp := int64(serveGeometry.PageSize / blockdev.SectorSize)
	half := sectors / numClients / spp * spp
	out := make([]*client, numClients)
	for i := range out {
		g := opGen{
			base:       int64(i) * half,
			size:       half,
			hotSize:    int64(w.hotPages/numClients) * spp,
			hotPct:     w.hotPct,
			maxSectors: w.maxSectors,
		}
		if i == numClients-1 {
			g.size = sectors - g.base
		}
		out[i] = newClient(seed*numClients+int64(i), g)
	}
	return out
}

// each runs fn for every client on its own goroutine and waits for all.
func each(clients []*client, fn func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// window is what one repetition produced, traced or not.
type window struct {
	setup, wall time.Duration
	clients     []*client
	alloc       uint64
	during      reading // the stack's activity inside the window
	batches     int64   // queue drains inside the window
	coalesced   int64   // writes merged into a predecessor
	trace       *tracer // the actor's tracer as the window closed
	flushTime   time.Duration
	eraseCounts []int
	attempted   int64 // window requests plus the read-back
	failed      int64
}

// runWindow does one repetition: set-up (build, sequential fill of the whole
// device, warm-up), the measured window, then Flush and a read-back of the
// whole device against both shadows.
func (w *serveWorkload) runWindow(seed int64, t *tracer) (*window, error) {
	runtime.GC() // every repetition starts from the same heap
	t0 := time.Now()
	srv, view, err := w.start(seed, t)
	if err != nil {
		return nil, err
	}
	defer func() { _ = srv.Close() }() // error paths; the good path checks Close itself

	clients := w.clients(seed, srv.Sectors())
	per := w.requests / numClients
	each(clients, func(c *client) {
		c.sweep(srv, true)
		c.run(srv, per/warmupShare)
	})
	for _, c := range clients {
		if c.failed > 0 {
			return nil, fmt.Errorf("%d of %d set-up operations failed", c.failed, c.attempted)
		}
		c.startWindow(per)
	}
	win := &window{clients: clients}

	// The window opens and closes on the actor, between two requests.
	var opened reading
	if err := srv.Exec(func() error {
		if t != nil {
			t.reset()
		}
		opened = view.read()
		return nil
	}); err != nil {
		return nil, err
	}
	stats0, err := srv.Stats()
	if err != nil {
		return nil, err
	}
	win.setup = time.Since(t0)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t1 := time.Now()
	each(clients, func(c *client) { c.run(srv, per) })
	win.wall = time.Since(t1)
	runtime.ReadMemStats(&after)
	win.alloc = after.TotalAlloc - before.TotalAlloc

	if err := srv.Exec(func() error {
		closed := view.read()
		win.during = reading{
			programs: closed.programs - opened.programs,
			cache: cache.Stats{
				Hits: closed.cache.Hits - opened.cache.Hits, Misses: closed.cache.Misses - opened.cache.Misses,
				Fills: closed.cache.Fills - opened.cache.Fills, Writebacks: closed.cache.Writebacks - opened.cache.Writebacks,
			},
			counts: closed.counts.since(opened.counts),
			resets: closed.resets - opened.resets,
		}
		if t != nil {
			// A copy, because the flush and read-back below go through the
			// shims too.
			frozen := *t
			win.trace = &frozen
		}
		return nil
	}); err != nil {
		return nil, err
	}
	stats1, err := srv.Stats()
	if err != nil {
		return nil, err
	}
	// The closing Exec drained alone, after the window's last batch.
	win.batches = stats1.Batches - stats0.Batches - 2
	win.coalesced = stats1.Coalesced - stats0.Coalesced

	// Correctness: everything the clients wrote must read back after Flush.
	tf := time.Now()
	if err := srv.Flush(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	win.flushTime = time.Since(tf)
	each(clients, func(c *client) { c.sweep(srv, false) })
	for _, c := range clients {
		win.attempted += c.attempted
		win.failed += c.failed
	}
	if err := srv.Exec(func() error { win.eraseCounts = view.eraseCounts(); return nil }); err != nil {
		return nil, err
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}
	if w.cachePages > 0 {
		if hr := hitRatio(win.during.cache); hr < minHitRatio {
			return nil, fmt.Errorf("cache.hit_ratio %.4f is under %.2f: the hot region no longer fits the cache", hr, minHitRatio)
		}
	}
	return win, nil
}

func hitRatio(s cache.Stats) float64 { return float64(s.Hits) / float64(s.Hits+s.Misses) }

// latencies pools the window's samples of one kind (0 reads, 1 writes).
func (win *window) latencies(kind int) []int {
	var all []int
	for _, c := range win.clients {
		all = append(all, c.lat[kind]...)
	}
	return all
}

var latencyKinds = []string{"read", "write"}

func (w *serveWorkload) rep(seed int64) (*repResult, error) {
	win, err := w.runWindow(seed, nil)
	if err != nil {
		return nil, err
	}
	rr := newRepResult([]time.Duration{win.setup}, win.wall, int64(w.requests))
	rr.attempted, rr.failed = win.attempted, win.failed
	m := rr.metrics
	m["alloc_bytes_per_op"] = float64(win.alloc) / float64(w.requests)
	var bytesWritten int64
	for _, c := range win.clients {
		bytesWritten += c.bytesWritten
	}
	m["write_amp"] = float64(win.during.programs) * float64(serveGeometry.PageSize) / float64(bytesWritten)
	es := stats.Summarize(win.eraseCounts)
	m["erase_max_over_mean"] = es.Max() / es.Mean()
	for kind, name := range latencyKinds {
		lat := win.latencies(kind)
		m[name+"_p50_us"] = float64(stats.Percentile(lat, 50)) / 1e3
		m[name+"_p99_us"] = float64(stats.Percentile(lat, 99)) / 1e3
		rr.samples[name+"_p50_us"] = int64(len(lat))
		rr.samples[name+"_p99_us"] = int64(len(lat))
	}
	return rr, nil
}

func (w *serveWorkload) traced(seed int64, _ *repResult) (*tracedResult, error) {
	win, err := w.runWindow(seed, newTracer())
	if err != nil {
		return nil, err
	}
	if win.failed > 0 {
		return nil, fmt.Errorf("%d of %d traced operations failed", win.failed, win.attempted)
	}
	t := win.trace
	reqs := float64(w.requests)
	tr := newTracedResult(t, "ftl", win.wall, int64(w.requests), true)
	m := tr.metrics
	driverMetrics(m, "ftl", t, win.during.counts)
	nandMetrics(m, t)
	coreMetrics(m, t, win.during.resets)

	bw, br := t.agg[spBlockdevWrite], t.agg[spBlockdevRead]
	m["blockdev.write_calls"] = float64(bw.Calls)
	m["blockdev.write_self_ns_per_call"] = perCall(bw, bw.Self)
	m["blockdev.read_calls"] = float64(br.Calls)
	m["blockdev.read_self_ns_per_call"] = perCall(br, br.Self)
	m["blockdev.rmw_pct"] = 100 * float64(t.rmwWrites) / float64(t.bdevWrites)
	m["blockdev.pages_per_write"] = float64(t.pagesWritten) / float64(t.bdevWrites)

	// The frontend spans are the actor's calls into the stack on behalf of
	// requests; what the clients waited beyond them is the queue's.
	front := bw.Total + br.Total
	if w.cachePages > 0 {
		cr, cw := t.agg[spCacheRead], t.agg[spCacheWrite]
		front = cr.Total + cw.Total
		cs := win.during.cache
		m["cache.hit_ratio"] = hitRatio(cs)
		m["cache.read_self_ns_per_call"] = perCall(cr, cr.Self)
		m["cache.write_self_ns_per_call"] = perCall(cw, cw.Self)
		m["cache.fills_per_kreq"] = 1000 * float64(cs.Fills) / reqs
		m["cache.writebacks_per_kreq"] = 1000 * float64(cs.Writebacks) / reqs
		m["cache.final_flush_ms"] = float64(win.flushTime) / 1e6
	}
	var roundTrip time.Duration
	for _, c := range win.clients {
		roundTrip += c.roundTrip
	}
	tick := t.agg[spServeTick]
	m["serve.queue_self_ns_per_req"] = float64(int64(roundTrip)-front) / reqs
	m["serve.batch_mean"] = reqs / float64(win.batches)
	m["serve.coalesced_pct"] = 100 * float64(win.coalesced) / reqs
	m["serve.tick_ns_per_batch"] = perCall(tick, tick.Total)
	for kind, name := range latencyKinds {
		lat := win.latencies(kind)
		m["serve."+name+"_p999_us"] = float64(stats.Percentile(lat, 99.9)) / 1e3
		tr.samples["serve."+name+"_p999_us"] = int64(len(lat))
	}
	return tr, nil
}
