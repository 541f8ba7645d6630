// Command swlserve runs a driver+leveler stack as a live block-device
// service: an HTTP ranged read/write protocol over the sector space, a
// write-back cache in front of the translation layer, and the monitor's
// observability endpoints mounted alongside. See docs/serving.md for the
// protocol and consistency contract.
//
// Usage:
//
//	swlserve -addr :8080 -layer ftl -swl -T 16
//	swlserve -addr :8080 -cachepages 64 -cacheassoc 8   # 64-line write-back cache
//	swlserve -addr :8080 -trace spans.json              # export a span trace at shutdown
//
// A worked session against a running server:
//
//	curl -s -X PUT --data-binary @chunk -H 'Content-Range: bytes 0-4095/*' http://localhost:8080/dev
//	curl -s -H 'Range: bytes=512-1535' http://localhost:8080/dev -o out.bin
//	curl -s -X POST http://localhost:8080/flush
//	curl -s http://localhost:8080/stats
//	curl -s http://localhost:8080/metrics
//
// The server flushes the cache and exports the trace on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flashswl/internal/blockdev"
	"flashswl/internal/core"
	"flashswl/internal/monitor"
	"flashswl/internal/nand"
	"flashswl/internal/obs"
	"flashswl/internal/obs/chrometrace"
	"flashswl/internal/serve"
	"flashswl/internal/serve/cache"
	"flashswl/internal/sim"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	layerName := flag.String("layer", "ftl", "translation layer: ftl, nftl, or dftl")
	swl := flag.Bool("swl", false, "enable static wear leveling")
	leveler := flag.String("leveler", "", "wear-leveling strategy from the registry ("+strings.Join(core.LevelerNames(), ", ")+"); implies -swl")
	k := flag.Int("k", 0, "BET mapping mode")
	threshold := flag.Float64("T", 100, "unevenness threshold")
	blocks := flag.Int("blocks", 128, "device blocks")
	ppb := flag.Int("ppb", 32, "pages per block")
	pageSize := flag.Int("pagesize", 2048, "page size in bytes")
	endurance := flag.Int("endurance", 0, "erase endurance per block (0 = cell default)")
	seed := flag.Int64("seed", 1, "leveler seed")
	cachePages := flag.Int("cachepages", 0, "write-back cache size in page lines (0 = no cache)")
	cacheAssoc := flag.Int("cacheassoc", 0, "cache ways per set (0 = default)")
	queueDepth := flag.Int("queue", 64, "request queue depth (backpressure bound)")
	tracePath := flag.String("trace", "", "write the causal span trace (Chrome trace-event JSON) here at shutdown")
	traceSpans := flag.Int("tracespans", 1<<16, "span ring capacity")
	traceSample := flag.Int("tracesample", 0, "record one in N host-request span trees (0 or 1 = every tree)")
	publishEvery := flag.Int("publishevery", 16, "publish a monitor snapshot every N request batches")
	flag.Parse()

	if *leveler != "" {
		*swl = true
	}
	layer, err := sim.ParseLayer(*layerName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swlserve: %v\n", err)
		os.Exit(2)
	}
	cfg := sim.Config{
		Geometry:  nand.Geometry{Blocks: *blocks, PagesPerBlock: *ppb, PageSize: *pageSize, SpareSize: 64},
		Cell:      nand.MLC2,
		Endurance: *endurance,
		Layer:     layer,
		SWL:       *swl,
		Leveler:   *leveler,
		K:         *k,
		T:         *threshold,
		Seed:      *seed,
		NoSpare:   true,
		StoreData: true, // served reads must return what was written
		Metrics:   true,
		TraceSpans: func() int {
			if *traceSpans > 0 {
				return *traceSpans
			}
			return 1 << 16
		}(),
		TraceSample: *traceSample,
	}
	start := time.Now()
	wall := func() int64 { return int64(time.Since(start)) }
	cfg.TraceClock = wall

	mon := monitor.NewServer()

	// The stack — chip, driver, leveler, device, cache — is built by Build
	// inside serve.New and belongs to the server from then on: one request
	// at a time owns it, through the server's mutex. main only touches it
	// again through srv.Exec and, after srv.Close has returned, for the
	// final trace export.
	var (
		runner *sim.Runner
		wcache *cache.Cache
	)
	srv, err := serve.New(serve.Config{
		QueueDepth: *queueDepth,
		Clock:      wall,
		Build: func() (*serve.Stack, error) {
			r, err := sim.NewRunner(cfg)
			if err != nil {
				return nil, err
			}
			runner = r
			bdev, err := blockdev.New(r.Layer(), *pageSize)
			if err != nil {
				return nil, err
			}
			stack := &serve.Stack{
				Front:    bdev,
				Tracer:   r.Tracer(),
				Registry: r.Registry(),
			}
			if *cachePages > 0 {
				c, err := cache.New(bdev, cache.Config{
					PageSize: *pageSize,
					Pages:    *cachePages,
					Assoc:    *cacheAssoc,
				})
				if err != nil {
					return nil, err
				}
				c.SetTracer(r.Tracer())
				c.SetMetrics(r.Registry())
				wcache = c
				stack.Front = c
				stack.Flush = c.Flush
			}
			batches := 0
			levelErrs := r.Registry().Counter("leveler_errors_total")
			stack.Tick = func() {
				// Give the leveler its chance after every batch, then
				// publish fresh snapshots for the monitor every so often.
				if lv := r.Leveler(); lv != nil {
					level(lv, levelErrs, os.Stderr)
				}
				batches++
				if *publishEvery > 0 && batches%*publishEvery == 0 {
					publish(mon, r, start)
				}
			}
			stack.Close = func() error {
				publish(mon, r, start)
				return nil
			}
			return stack, nil
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "swlserve: %v\n", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Handler: newMux(srv, wcache, mon.Handler())}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swlserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("serving:   http://%s/dev  (%d sectors, %d bytes)\n", ln.Addr(), srv.Sectors(), srv.Sectors()*blockdev.SectorSize)
	fmt.Printf("stack:     %s leveler=%s cache=%d pages queue=%d\n", layer, levelerLabel(cfg), *cachePages, *queueDepth)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case sig := <-stop:
		fmt.Printf("signal:    %v, shutting down\n", sig)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "swlserve: %v\n", err)
		os.Exit(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "swlserve: shutdown: %v\n", err)
	}
	st, _ := srv.Stats()
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "swlserve: close: %v\n", err)
		os.Exit(1)
	}
	// Close has returned: nobody owns the stack and it is safe to read here.
	fmt.Printf("served:    %d requests in %d batches, %d writes coalesced\n", st.Requests, st.Batches, st.Coalesced)
	if wcache != nil {
		cs := wcache.Stats()
		fmt.Printf("cache:     %d hits, %d misses, %d fills, %d writebacks\n", cs.Hits, cs.Misses, cs.Fills, cs.Writebacks)
	}
	if *tracePath != "" {
		snap := runner.Tracer().Snapshot()
		f, err := os.Create(*tracePath)
		if err == nil {
			err = chrometrace.Write(f, snap)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "swlserve: writing %s: %v\n", *tracePath, err)
			os.Exit(1)
		}
		fmt.Printf("trace:     %d spans -> %s\n", len(snap.Spans), *tracePath)
	}
}

// level runs the leveler if it asks to. A forced recycle that fails (device
// out of space, an unrecoverable erase) does not stop the server: it is
// counted, which /metrics shows, and the first failure is also logged.
func level(lv sim.Leveler, errs *obs.Counter, log io.Writer) {
	if !lv.NeedsLeveling() {
		return
	}
	if err := lv.Level(); err != nil {
		if errs.Value() == 0 {
			fmt.Fprintf(log, "swlserve: wear leveling failed (later failures only count in leveler_errors_total): %v\n", err)
		}
		errs.Inc()
	}
}

// levelerLabel names the configured strategy for the startup banner.
func levelerLabel(cfg sim.Config) string {
	if name := cfg.LevelerName(); name != "" {
		return name
	}
	return "off"
}

// publish builds an immutable monitor snapshot from the server's stack. It
// must run with the stack owned (the Tick and Close hooks do).
func publish(mon *monitor.Server, r *sim.Runner, start time.Time) {
	counts := r.DeviceEraseCounts(nil)
	var mean float64
	max := 0
	for _, c := range counts {
		mean += float64(c)
		if c > max {
			max = c
		}
	}
	if len(counts) > 0 {
		mean /= float64(len(counts))
	}
	snap := &monitor.Snapshot{
		Heatmap: monitor.Heatmap{
			Blocks:      len(counts),
			EraseCounts: counts,
			Endurance:   r.DeviceEndurance(),
		},
		Progress: monitor.Progress{
			WallSeconds: time.Since(start).Seconds(),
			MeanErase:   mean,
			MaxErase:    max,
			Endurance:   r.DeviceEndurance(),
			ETASeconds:  -1,
		},
		Labels: []monitor.Label{{Name: "cmd", Value: "swlserve"}},
	}
	if reg := r.Registry(); reg != nil {
		ms := reg.Snapshot()
		snap.Metrics = &ms
	}
	mon.Publish(snap)
	if tr := r.Tracer(); tr != nil {
		mon.PublishTrace(tr.SnapshotRecent(4096))
	}
}
