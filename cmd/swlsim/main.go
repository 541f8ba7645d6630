// Command swlsim runs one endurance simulation: a workload trace against
// FTL or NFTL, with or without the static wear leveler, reporting the first
// failure time, erase-count distribution, and overhead counters.
//
// Usage:
//
//	swlsim -layer ftl -swl -k 0 -T 100 -blocks 128 -endurance 300
//	swlsim -layer nftl -replay day.trace    # replay a recorded workload trace
//	swlsim -swl -trace spans.json           # capture a causal span trace (Perfetto JSON)
//	swlsim -layer ftl -years 1              # fixed aging span instead of run-to-failure
//	swlsim -layer ftl -leveler gap -T 40    # a rival strategy from the leveler registry
//	swlsim -array 4 -stripe -leveler global # 4-chip striped array with the cross-chip leveler
//	swlsim -layer ftl -cachepages 64        # write-back cache in front of the layer
//	swlsim -layer ftl -swl -pfail 1e-3 -efail 1e-3   # transient fault injection
//	swlsim -layer nftl -cutafter 5000 -T 4  # power-cut/remount recovery check
//	swlsim -layer ftl -swl -metrics out.jsonl       # JSONL event/metric stream
//	swlsim -layer ftl -swl -check -sample 5000      # invariant checking + wear series
//	swlsim -full -swl -serve :8080                  # paper-scale run with live monitoring
//	swlsim -layer ftl -swl -summary BENCH_summary.json   # machine-readable artifact for swlstat
//	swlsim -swl -checkpoint run.ckpt -checkpointevery 100000  # periodic resumable checkpoints
//	swlsim -swl -resume run.ckpt -years 2           # continue a checkpointed run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"flashswl/internal/core"
	"flashswl/internal/faultinject"
	"flashswl/internal/monitor"
	"flashswl/internal/nand"
	"flashswl/internal/obs"
	"flashswl/internal/obs/chrometrace"
	"flashswl/internal/sim"
	"flashswl/internal/stats"
	"flashswl/internal/trace"
	"flashswl/internal/workload"
)

func main() {
	layerName := flag.String("layer", "ftl", "translation layer: ftl, nftl, or dftl")
	swl := flag.Bool("swl", false, "enable static wear leveling")
	leveler := flag.String("leveler", "", "wear-leveling strategy from the registry ("+strings.Join(core.LevelerNames(), ", ")+"); implies -swl")
	period := flag.Int64("period", 0, "erase count between forced recycles (the periodic strategy requires it)")
	k := flag.Int("k", 0, "BET mapping mode")
	threshold := flag.Float64("T", 100, "unevenness threshold (the erase-count gap for dualpool/gap)")
	blocks := flag.Int("blocks", 128, "device blocks")
	ppb := flag.Int("ppb", 32, "pages per block")
	pageSize := flag.Int("pagesize", 2048, "page size in bytes")
	endurance := flag.Int("endurance", 300, "erase endurance per block")
	arrayChips := flag.Int("array", 0, "build the device as an array of N identical chips; the geometry flags describe one chip (0 or 1 = single chip)")
	stripeFlag := flag.Bool("stripe", false, "stripe the array block-interleaved across chips instead of concatenating (needs -array)")
	years := flag.Float64("years", 0, "fixed simulated span in years (0 = run to first failure)")
	maxEvents := flag.Int64("maxevents", 500_000_000, "hard event cap")
	seed := flag.Int64("seed", 1, "seed for trace resampling and the leveler")
	replayFile := flag.String("replay", "", "replay this recorded workload trace instead of the synthetic workload")
	tracePath := flag.String("trace", "", "write a causal span trace (Chrome trace-event JSON; load in Perfetto or feed to swltrace) to this file")
	traceSpans := flag.Int("tracespans", 1<<16, "span ring capacity for -trace (the ring keeps the most recent spans)")
	traceSample := flag.Int("tracesample", 0, "record one in N host-operation span trees (0 or 1 = every tree; leveler episodes are always recorded)")
	heatmap := flag.Bool("heatmap", false, "print a per-block wear heatmap")
	pfail := flag.Float64("pfail", 0, "transient program fault rate (e.g. 1e-3)")
	efail := flag.Float64("efail", 0, "transient erase fault rate")
	badEvery := flag.Int64("badevery", 0, "mark the target of every Nth erase grown-bad (0 = off)")
	maxBad := flag.Int("maxbad", 0, "cap on grown-bad blocks (0 = unlimited)")
	flipEvery := flag.Int64("flipevery", 0, "flip a stored bit on every Nth read (0 = off)")
	cutAfter := flag.Int64("cutafter", 0, "power-cut/recovery mode: cut after N flash ops, then remount and verify")
	metricsPath := flag.String("metrics", "", "write the observability stream (events, wear samples, final metrics) as JSONL to this file")
	sampleEvery := flag.Int64("sample", 0, "take a wear time-series sample every N trace events (0 = off; -metrics and -serve default it)")
	check := flag.Bool("check", false, "attach the invariant checker; exit nonzero on any violation")
	full := flag.Bool("full", false, "paper-scale preset: 4096 blocks x 128 pages x 2KB, endurance 10000 (explicit geometry flags still win)")
	serveAddr := flag.String("serve", "", "serve live monitoring (Prometheus /metrics, /heatmap, /progress, pprof, POST /checkpoint) on this address during the run")
	summaryPath := flag.String("summary", "", "write a BENCH summary artifact (for cmd/swlstat) to this file")
	checkpointPath := flag.String("checkpoint", "", "write resumable checkpoints to this file (atomic replace; also written once at a clean end)")
	checkpointEvery := flag.Int64("checkpointevery", 0, "write a checkpoint every N trace events (needs -checkpoint)")
	resumePath := flag.String("resume", "", "resume from this checkpoint file; the other flags must rebuild the original configuration")
	cachePages := flag.Int("cachepages", 0, "front the layer with the write-back cache, holding N page lines (0 = off; incompatible with -checkpoint/-resume)")
	cacheAssoc := flag.Int("cacheassoc", 0, "cache ways per set (0 = default; needs -cachepages)")
	flag.Parse()

	if *leveler != "" {
		*swl = true
	}
	if *full {
		// The preset fills in the paper's experimental platform (§4.1) for
		// every geometry flag the command line left at its default.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["blocks"] {
			*blocks = 4096
		}
		if !set["ppb"] {
			*ppb = 128
		}
		if !set["pagesize"] {
			*pageSize = 2048
		}
		if !set["endurance"] {
			*endurance = 10_000
		}
	}

	layer, err := sim.ParseLayer(*layerName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swlsim: %v\n", err)
		os.Exit(2)
	}

	geo := nand.Geometry{Blocks: *blocks, PagesPerBlock: *ppb, PageSize: *pageSize, SpareSize: 64}
	var fcfg *faultinject.Config
	if *pfail > 0 || *efail > 0 || *badEvery > 0 || *flipEvery > 0 {
		fcfg = &faultinject.Config{
			Seed:            *seed,
			ProgramFailRate: *pfail,
			EraseFailRate:   *efail,
			GrownBadEvery:   *badEvery,
			MaxGrownBad:     *maxBad,
			BitFlipEvery:    *flipEvery,
		}
	}
	if *cutAfter > 0 {
		runRecovery(geo, layer, fcfg, *endurance, *k, *threshold, *seed, *cutAfter)
		return
	}
	nchips := *arrayChips
	if nchips < 1 {
		nchips = 1
	}
	spp := int64(*pageSize / 512)
	logicalPages := int64(geo.Pages()) * int64(nchips) * 88 / 100
	if max := int64(geo.Pages()*nchips - 6**ppb); logicalPages > max {
		logicalPages = max // tiny devices need whole blocks of slack
	}
	sectors := logicalPages * spp

	var src trace.Source
	if *replayFile != "" {
		f, err := os.Open(*replayFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swlsim: %v\n", err)
			os.Exit(1)
		}
		// Sniff the format: binary traces start with the FSWLTRC1 magic.
		var magic [8]byte
		n, _ := io.ReadFull(f, magic[:])
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			fmt.Fprintf(os.Stderr, "swlsim: %v\n", err)
			os.Exit(1)
		}
		var events []trace.Event
		if n == 8 && string(magic[:]) == "FSWLTRC1" {
			events, err = trace.ReadBinary(f)
		} else {
			events, err = trace.ReadText(f)
		}
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "swlsim: %v\n", err)
			os.Exit(1)
		}
		src = trace.NewSliceSource(events)
	} else {
		m := workload.PaperScaled(sectors)
		m.Seed = *seed
		src = m.Infinite(*seed)
	}

	cfg := sim.Config{
		Geometry:       geo,
		Cell:           nand.MLC2,
		Endurance:      *endurance,
		Layer:          layer,
		LogicalSectors: sectors,
		SWL:            *swl,
		ArrayChips:     *arrayChips,
		ArrayStripe:    *stripeFlag,
		Leveler:        *leveler,
		Period:         *period,
		K:              *k,
		T:              *threshold,
		NoSpare:        true,
		Seed:           *seed,
		Faults:         fcfg,
		StoreData:      *flipEvery > 0, // bit flips need retained page payloads
		MaxEvents:      *maxEvents,
		CachePages:     *cachePages,
		CacheAssoc:     *cacheAssoc,
	}
	if *years > 0 {
		cfg.MaxSimTime = time.Duration(*years * 365 * 24 * float64(time.Hour))
	} else {
		cfg.StopOnFirstWear = true
	}
	var jw *obs.JSONLWriter
	var jf *os.File
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swlsim: %v\n", err)
			os.Exit(1)
		}
		jf = f
		jw = obs.NewJSONLWriter(f)
		cfg.Sink = jw
		cfg.Metrics = true
		if *sampleEvery == 0 {
			*sampleEvery = obs.DefaultSampleInterval
		}
	}
	cfg.CheckpointPath = *checkpointPath
	cfg.CheckpointEvery = *checkpointEvery
	wantTracer := *tracePath != ""
	flag.Visit(func(f *flag.Flag) {
		// -tracespans/-tracesample without -trace still attach the tracer,
		// for runs that only expose spans through the monitor's /trace.
		if f.Name == "tracespans" || f.Name == "tracesample" {
			wantTracer = true
		}
	})
	if wantTracer {
		cfg.TraceSpans = *traceSpans
		cfg.TraceSample = *traceSample
		// A wall clock, so exported span durations are real latencies.
		traceStart := time.Now()
		cfg.TraceClock = func() int64 { return int64(time.Since(traceStart)) }
	}
	var pub *monitor.SimPublisher
	var mon *monitor.Server
	if *serveAddr != "" {
		mon = monitor.NewServer()
		if *checkpointPath != "" {
			// POST /checkpoint raises a flag the run polls between events.
			mon.EnableCheckpointTrigger()
			cfg.CheckpointRequested = mon.CheckpointRequested
		}
		cfg.Metrics = true
		if *sampleEvery == 0 {
			*sampleEvery = obs.DefaultSampleInterval
		}
		// The publisher needs the runner, which needs the config: bridge the
		// cycle with a late-bound hook (it runs on the sim goroutine).
		prev := cfg.OnSample
		cfg.OnSample = func(s obs.WearSample) {
			if prev != nil {
				prev(s)
			}
			if pub != nil {
				pub.OnSample(s)
			}
		}
	}
	cfg.SampleEvery = *sampleEvery
	cfg.CheckInvariants = *check

	var runner *sim.Runner
	if *resumePath != "" {
		runner, err = sim.Resume(*resumePath, cfg, src)
		if err == nil {
			fmt.Printf("resumed:         %s at event %d\n", *resumePath, runner.Events())
		}
	} else {
		runner, err = sim.NewRunner(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "swlsim: %v\n", err)
		os.Exit(1)
	}
	if *serveAddr != "" {
		bound, err := mon.Start(*serveAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swlsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("monitoring:      http://%s/ (metrics, heatmap, progress, pprof)\n", bound)
		pub = monitor.NewSimPublisher(mon, runner, cfg,
			monitor.Label{Name: "layer", Value: layer.String()},
			monitor.Label{Name: "cmd", Value: "swlsim"})
	}
	wallStart := time.Now()
	res, err := runner.Run(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swlsim: %v\n", err)
		os.Exit(1)
	}
	wall := time.Since(wallStart)
	if pub != nil {
		pub.Finish(res)
		defer mon.Close()
	}
	if jw != nil {
		jw.Metrics(runner.Registry())
		if err := jw.Flush(); err == nil {
			err = jf.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "swlsim: writing %s: %v\n", *metricsPath, err)
			os.Exit(1)
		}
	}

	var traceSnap *obs.TraceSnapshot
	if *tracePath != "" {
		traceSnap = runner.Tracer().Snapshot()
		tf, err := os.Create(*tracePath)
		if err == nil {
			err = chrometrace.Write(tf, traceSnap)
			if cerr := tf.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "swlsim: writing %s: %v\n", *tracePath, err)
			os.Exit(1)
		}
	}

	strategy := cfg.LevelerName()
	if strategy == "" {
		strategy = "off"
	}
	fmt.Printf("configuration:   %s  leveler=%s k=%d T=%g  %s endurance=%d\n",
		layer, strategy, *k, *threshold, geo, *endurance)
	if nchips > 1 {
		mode := "concat"
		if *stripeFlag {
			mode = "striped"
		}
		fmt.Printf("array:           %d chips, %s layout, %d blocks total\n", nchips, mode, geo.Blocks*nchips)
	}
	fmt.Printf("events:          %d (%d page writes, %d page reads)\n", res.Events, res.PageWrites, res.PageReads)
	fmt.Printf("simulated time:  %v (%.3f years)\n", res.SimTime, res.SimTime.Hours()/(24*365))
	if res.FirstWear >= 0 {
		fmt.Printf("first failure:   %v (%.3f years), %d blocks worn\n", res.FirstWear, res.FirstWearYears(), res.WornBlocks)
	} else {
		fmt.Printf("first failure:   none within the run\n")
	}
	fmt.Printf("erases:          %d total, %d by SWL; GC runs %d\n", res.Erases, res.ForcedErases, res.GCRuns)
	fmt.Printf("live copies:     %d total, %d by SWL\n", res.LiveCopies, res.ForcedCopies)
	fmt.Printf("erase counts:    %s\n", res.EraseStats.String())
	if res.Cache != nil {
		fmt.Printf("cache:           %d lines; %d hits, %d misses, %d fills, %d writebacks (%d sectors)\n",
			*cachePages, res.Cache.Hits, res.Cache.Misses, res.Cache.Fills, res.Cache.Writebacks, res.Cache.WritebackSectors)
	}
	if *swl {
		fmt.Printf("leveler:         %+v\n", res.Leveler)
	}
	if fcfg != nil {
		fmt.Printf("faults injected: %+v\n", res.Faults)
		fmt.Printf("fault recovery:  %d program retries, %d erase retries, %d blocks retired\n",
			res.ProgramRetries, res.EraseRetries, res.RetiredBlocks)
	}
	if *sampleEvery > 0 && len(res.Series) > 0 {
		last := res.Series[len(res.Series)-1]
		fmt.Printf("wear series:     %d samples (every %d events); final mean %.1f stddev %.1f max %d\n",
			len(res.Series), *sampleEvery, last.MeanErase, last.StdDevErase, last.MaxErase)
	}
	if jw != nil {
		fmt.Printf("metrics:         %d events + %d samples + 1 snapshot -> %s\n",
			jw.Events(), len(res.Series), *metricsPath)
	}
	if traceSnap != nil {
		fmt.Printf("span trace:      %d spans retained of %d recorded (%d dropped by the ring) -> %s\n",
			len(traceSnap.Spans), traceSnap.Total, traceSnap.Dropped, *tracePath)
	}
	if *check {
		violations := runner.InvariantChecker().ViolationCount()
		fmt.Printf("invariants:      %d checkpoints, %d violations\n", res.InvariantChecks, violations)
		for _, v := range res.InvariantViolations {
			fmt.Fprintf(os.Stderr, "swlsim: %s\n", v.String())
		}
		if violations > 0 {
			os.Exit(1)
		}
	}
	if *summaryPath != "" {
		name := fmt.Sprintf("swlsim/%s/base", layer)
		if *leveler != "" {
			name = fmt.Sprintf("swlsim/%s/%s_k%d_T%g", layer, *leveler, *k, *threshold)
		} else if *swl {
			name = fmt.Sprintf("swlsim/%s/k%d_T%g", layer, *k, *threshold)
		}
		run := sim.Summarize(name, cfg, res)
		run.WallSeconds = wall.Seconds()
		b := obs.NewBenchSummary("swlsim")
		b.Add(run)
		if err := b.WriteFile(*summaryPath); err != nil {
			fmt.Fprintf(os.Stderr, "swlsim: writing %s: %v\n", *summaryPath, err)
			os.Exit(1)
		}
		fmt.Printf("summary:         %s -> %s\n", name, *summaryPath)
	}
	if res.Err != nil {
		fmt.Printf("ended early:     %v\n", res.Err)
	}
	if *heatmap {
		fmt.Printf("wear map (rows of 32 blocks, darker = more erases):\n%s",
			stats.Heatmap(res.EraseCounts, 32))
	}
}

// runRecovery executes the power-cut/remount experiment (-cutafter): a
// random write workload with periodic leveler snapshots, cut after exactly
// N flash operations, then remounted from the spare areas and verified.
func runRecovery(geo nand.Geometry, layer sim.LayerKind, fcfg *faultinject.Config, endurance, k int, t float64, seed, cutAfter int64) {
	res, err := sim.RunPowerCut(sim.RecoveryConfig{
		Geometry:      geo,
		Endurance:     endurance,
		Layer:         layer,
		K:             k,
		T:             t,
		Seed:          seed,
		Writes:        10_000,
		CutAfterOps:   cutAfter,
		SnapshotEvery: 250,
		Faults:        fcfg,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "swlsim: recovery run: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("configuration:   %s  k=%d T=%g  %s endurance=%d\n", layer, k, t, geo, endurance)
	if res.Cut {
		fmt.Printf("power cut:       after %d flash operations\n", res.CutOps)
	} else {
		fmt.Printf("power cut:       never fired (run completed first)\n")
	}
	fmt.Printf("host writes:     %d acknowledged before the cut\n", res.AckedWrites)
	fmt.Printf("after remount:   %d pages verified, %d lost\n", res.VerifiedPages, res.LostPages)
	if res.LevelerRestored {
		fmt.Printf("leveler:         restored from snapshot seq %d (newest completed save: %d)\n",
			res.RestoredSeq, res.LastSavedSeq)
	} else {
		fmt.Printf("leveler:         no decodable snapshot (newest completed save: %d); fresh interval\n",
			res.LastSavedSeq)
	}
	fmt.Printf("retired blocks:  %d during remount\n", res.RetiredBlocks)
	fmt.Printf("faults injected: %+v\n", res.Faults)
	if res.LostPages > 0 {
		fmt.Fprintln(os.Stderr, "swlsim: acknowledged data was lost across the power cut")
		os.Exit(1)
	}
}
