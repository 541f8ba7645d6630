// Command experiments regenerates every table and figure of the paper's
// evaluation: the analytic Tables 1–3, the erase-distribution Table 4, and
// Figures 5 (first failure time), 6 (extra block erases), and 7 (extra
// live-page copyings), each for FTL and NFTL with the SW Leveler swept over
// k and T.
//
// Usage:
//
//	experiments                  # everything, at the default (scaled) size
//	experiments -only fig5       # one experiment: tab1..tab4, fig5..fig7
//	experiments -only ablate     # the design ablations (DESIGN.md §4); only run when named
//	experiments -blocks 4096 -k 2  # BET size of a custom device, nothing else
//	experiments -quick           # miniature scale (seconds)
//	experiments -full            # the paper's exact 1 GB configuration (very slow)
//	experiments -series out/     # wear-trajectory CSVs, one per (layer, k, T) cell
//	experiments -check           # run every cell with the invariant checker attached
//	experiments -serve :8080     # live sweep progress over HTTP while the suite runs
//	experiments -arena           # leveler tournament: every registered strategy on one trace
//	experiments -arena -arenadir out/   # also write leaderboard.csv + per-strategy BENCH files
//	experiments -fleet 1000      # fleet: 1000 independent devices run to first failure
//	experiments -fleet 256 -fleetdir out/  # also write fleet_cdf.csv + BENCH_fleet.json
//	experiments -servecache      # cache-vs-SWL-vs-both endurance grid (PAPERS.md claim)
//	experiments -servecache -servecachedir out/  # also write serve_cache.csv
//
// Every invocation that runs simulation cells also writes a machine-readable
// BENCH_summary.json artifact (one record per cell) for cmd/swlstat to diff
// against an earlier run; -summary moves or disables it.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"flashswl/internal/core"
	"flashswl/internal/experiments"
	"flashswl/internal/faultinject"
	"flashswl/internal/monitor"
	"flashswl/internal/sim"
)

func main() {
	quick := flag.Bool("quick", false, "use the miniature test scale")
	full := flag.Bool("full", false, "use the paper's full 1 GB scale (hours of runtime)")
	only := flag.String("only", "", "run a single experiment: tab1, tab2, tab2m, tab3, tab4, fig5, fig6, fig7, fleet, ablate (ablate never runs unless named)")
	betBlocks := flag.Int("blocks", 0, "print the BET size for a device of this many blocks (with -k) and exit")
	betK := flag.Int("k", 0, "BET mapping mode for -blocks (one flag per 2^k blocks)")
	seed := flag.Int64("seed", 0, "override the trace/leveler seed")
	csv := flag.Bool("csv", false, "emit figures and Table 4 as CSV rows for plotting")
	withDFTL := flag.Bool("dftl", false, "add the demand-paged DFTL layer to Figure 5 (beyond the paper)")
	faults := flag.Bool("faults", false, "inject a 1e-3 transient program/erase fault rate into every run")
	seriesDir := flag.String("series", "", "also run the wear-trajectory sweep, writing one CSV per cell into this directory")
	seriesSamples := flag.Int("samples", 200, "target number of wear samples per trajectory (-series)")
	check := flag.Bool("check", false, "attach the invariant checker to every run; any violation fails the experiment")
	branch := flag.Int64("branch", 0, "branch-from-checkpoint: warm each layer up for N events once and fork the sweep cells from the checkpoint (0 = off; results are identical either way)")
	summaryPath := flag.String("summary", "BENCH_summary.json", "write the per-cell BENCH summary artifact here (empty = skip)")
	arena := flag.Bool("arena", false, "run the leveler arena: every registered strategy plus a no-leveling baseline, run to failure on the same trace")
	arenaDir := flag.String("arenadir", "", "write arena artifacts (leaderboard.csv, BENCH_arena_<strategy>.json) into this directory (needs -arena)")
	fleetN := flag.Int("fleet", 0, "run the fleet experiment: N independent devices run to first failure, each over its own resampled trace (0 = off)")
	fleetWorkers := flag.Int("fleetworkers", 0, "bound the fleet's concurrent device simulations (0 = NumCPU; never affects results)")
	fleetDir := flag.String("fleetdir", "", "write fleet artifacts (fleet_cdf.csv, BENCH_fleet.json) into this directory (needs -fleet)")
	fleetChips := flag.Int("fleetchips", 0, "build every fleet device as an array of N chips (0 = single chip)")
	fleetStripe := flag.Bool("fleetstripe", false, "stripe the fleet devices' arrays block-interleaved instead of concatenating (needs -fleetchips)")
	serveAddr := flag.String("serve", "", "serve live sweep progress (Prometheus /metrics, /heatmap, /progress, pprof) on this address")
	serveCache := flag.Bool("servecache", false, "run the cache-vs-SWL-vs-both grid: write-back cache sizes crossed with the leveler off/on, run to first failure")
	serveCacheDir := flag.String("servecachedir", "", "write the serve-cache artifact (serve_cache.csv) into this directory (needs -servecache)")
	flag.Parse()

	if *betBlocks < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -blocks must be positive")
		os.Exit(2)
	}
	if *betBlocks > 0 {
		fmt.Printf("BET for %d blocks, k=%d: %d bytes\n", *betBlocks, *betK, core.BETSizeBytes(*betBlocks, *betK))
		return
	}

	// Progress and bookkeeping lines; with -csv they leave stdout to the rows.
	status := os.Stdout
	if *csv {
		status = os.Stderr
	}

	sc := experiments.DefaultScale()
	if *quick {
		sc = experiments.QuickScale()
	}
	if *full {
		sc = experiments.FullScale()
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *faults {
		sc.Faults = &faultinject.Config{
			Seed:            sc.Seed,
			ProgramFailRate: 1e-3,
			EraseFailRate:   1e-3,
		}
	}
	sc.CheckInvariants = *check
	sc.BranchWarmupEvents = *branch

	collector := experiments.NewSummaryCollector(sc.Name)
	hooks := []func(string, sim.Config, *sim.Result){collector.CellDone}
	var sweepSrv *monitor.Server
	if *serveAddr != "" {
		mon := newSweepMonitor(sc.Geometry.Blocks, sc.Endurance)
		bound, err := mon.start(*serveAddr)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(status, "monitoring: http://%s/ (metrics, heatmap, progress, pprof)\n", bound)
		defer mon.close()
		hooks = append(hooks, mon.cellDone)
		sweepSrv = mon.srv
	}
	sc.OnCellDone = func(label string, cfg sim.Config, res *sim.Result) {
		for _, h := range hooks {
			h(label, cfg, res)
		}
	}
	defer func() {
		if *summaryPath == "" || collector.Len() == 0 {
			return
		}
		if err := collector.Summary().WriteFile(*summaryPath); err != nil {
			fail(err)
		}
		fmt.Fprintf(status, "bench summary: %d runs -> %s\n", collector.Len(), *summaryPath)
	}()

	fmt.Fprintf(status, "scale: %s — %s, endurance %d, T scale ×%g\n\n", sc.Name, sc.Geometry, sc.Endurance, sc.TFactor)
	if sc.Faults != nil {
		fmt.Fprintf(status, "fault injection: program %g, erase %g (transient, seed %d)\n\n",
			sc.Faults.ProgramFailRate, sc.Faults.EraseFailRate, sc.Faults.Seed)
	}

	want := func(name string) bool { return *only == "" || *only == name }
	start := time.Now()

	if want("tab1") {
		fmt.Println("== Table 1: BET size for SLC flash memory (128 KB blocks) ==")
		fmt.Println(experiments.FormatTable1(experiments.Table1(experiments.SLCBlockSize)))
		fmt.Println("== Table 1 for MLC×2 flash memory (256 KB blocks) ==")
		fmt.Println(experiments.FormatTable1(experiments.Table1(experiments.MLC2BlockSize)))
	}
	if want("tab2") {
		fmt.Println("== Table 2: worst-case increased ratio of block erases (1 GB MLC×2) ==")
		fmt.Println(experiments.FormatTable2(experiments.Table2()))
	}
	if want("tab3") {
		fmt.Println("== Table 3: worst-case increased ratio of live-page copyings (N=128) ==")
		fmt.Println(experiments.FormatTable3(experiments.Table3()))
	}
	if want("tab2m") {
		fmt.Println("== Table 2 validated in simulation (scaled Figure 4 scenario, dual-frontier FTL) ==")
		fmt.Printf("%6s %6s %6s %12s %12s\n", "H", "C", "T", "predicted", "measured")
		for _, cfg := range []struct {
			h, c int
			t    float64
		}{{8, 56, 20}, {8, 56, 40}, {8, 56, 60}} {
			pred, meas, err := experiments.Table2Measured(cfg.h, cfg.c, cfg.t, 8)
			if err != nil {
				fail(err)
			}
			fmt.Printf("%6d %6d %6.0f %11.3f%% %11.3f%%\n", cfg.h, cfg.c, cfg.t, pred*100, meas*100)
		}
		fmt.Println()
	}

	ks, ts := experiments.PaperKs, experiments.PaperTs
	layers := []sim.LayerKind{sim.FTL, sim.NFTL} // the paper's two, which Table 4 and Figures 6–7 keep to
	if *withDFTL {
		layers = append(layers, sim.DFTL)
	}
	// emit prints one exhibit: its CSV rows under -csv, else the titled table.
	emit := func(title, rows, table string) {
		if *csv {
			fmt.Print(rows)
			return
		}
		fmt.Printf("== %s ==\n%s\n", title, table)
	}
	// wrote reports an experiment's artifact directory, or fails.
	wrote := func(what, dir string, names []string, err error) {
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(status, "%s artifacts: %d files -> %s\n", what, len(names), dir)
	}

	if want("fig5") {
		for _, layer := range layers {
			s, err := experiments.Figure5(sc, layer, ks, ts)
			if err != nil {
				fail(err)
			}
			emit(fmt.Sprintf("Figure 5: first failure time — %s", layer), experiments.SeriesCSV("fig5", s, ks, ts),
				experiments.FormatSeries(s, fmt.Sprintf("Figure 5(%s)", layer), "simulated years", ks, ts))
		}
	}

	if want("tab4") || want("fig6") || want("fig7") {
		aged, err := experiments.RunAged(sc, ks, ts)
		if err != nil {
			fail(err)
		}
		if want("tab4") {
			emit("Table 4: erase-count distribution after the aging span",
				experiments.Table4CSV(aged.Table4()), experiments.FormatTable4(aged.Table4()))
		}
		if want("fig6") {
			for _, layer := range layers[:2] {
				s := aged.Figure6(layer)
				emit(fmt.Sprintf("Figure 6: increased ratio of block erases — %s", layer), experiments.SeriesCSV("fig6", s, ks, ts),
					experiments.FormatSeries(s, fmt.Sprintf("Figure 6(%s)", layer), "% of baseline", ks, ts))
			}
		}
		if want("fig7") {
			for _, layer := range layers[:2] {
				s := aged.Figure7(layer)
				unit := "% of baseline"
				if s.Absolute {
					unit = "absolute live-page copies (baseline made none)"
				}
				emit(fmt.Sprintf("Figure 7: increased ratio of live-page copyings — %s", layer), experiments.SeriesCSV("fig7", s, ks, ts),
					experiments.FormatSeries(s, fmt.Sprintf("Figure 7(%s)", layer), unit, ks, ts))
			}
		}
	}

	if *only == "ablate" {
		rows, err := experiments.RunAblations(sc)
		if err != nil {
			fail(err)
		}
		rendered := experiments.AblationsCSV(rows)
		emit("Ablations: one design choice flipped per row, run to first failure on the shared trace", rendered, rendered)
	}

	if *arena {
		res, err := experiments.RunArena(sc, sim.FTL, 0, 100)
		if err != nil {
			fail(err)
		}
		emit("Arena: leveler tournament, run to first failure on the shared trace",
			experiments.ArenaCSV(res), experiments.FormatArena(res))
		if *arenaDir != "" {
			names, err := experiments.WriteArenaArtifacts(*arenaDir, res)
			wrote("arena", *arenaDir, names, err)
		}
	}

	if *serveCache {
		res, err := experiments.RunServeCache(sc, sim.FTL, 0, 100, nil)
		if err != nil {
			fail(err)
		}
		emit("Serve cache: cache vs. SWL vs. both, run to first failure on the shared trace",
			experiments.ServeCacheCSV(res), experiments.FormatServeCache(res))
		if *serveCacheDir != "" {
			names, err := experiments.WriteServeCacheArtifacts(*serveCacheDir, res)
			wrote("serve-cache", *serveCacheDir, names, err)
		}
	}

	if *fleetN > 0 && want("fleet") {
		spec := experiments.DefaultFleetSpec(*fleetN)
		spec.Workers = *fleetWorkers
		spec.ArrayChips = *fleetChips
		spec.ArrayStripe = *fleetStripe
		if sweepSrv != nil {
			agg := monitor.NewFleetAggregator(sweepSrv, *fleetN, sc.Endurance,
				monitor.Label{Name: "cmd", Value: "experiments"})
			spec.OnDeviceDone = agg.OnDeviceDone
			spec.OnDeviceSample = agg.OnDeviceSample
			spec.SampleEvery = -1
		}
		o, err := experiments.RunFleet(sc, spec)
		if err != nil {
			fail(err)
		}
		collector.AddRun(o.Summary())
		fmt.Println("== Fleet: first-failure distribution over independent devices ==")
		fmt.Println(experiments.FormatFleet(o))
		if *fleetDir != "" {
			names, err := experiments.WriteFleetArtifacts(*fleetDir, o)
			wrote("fleet", *fleetDir, names, err)
		}
	}

	if *seriesDir != "" {
		names, err := experiments.WriteWearSeries(*seriesDir, sc, layers, ks, ts, *seriesSamples)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(status, "wear series: %d trajectory CSVs -> %s\n", len(names), *seriesDir)
	}

	fmt.Fprintf(status, "total runtime: %v\n", time.Since(start).Round(time.Millisecond))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
	os.Exit(1)
}
