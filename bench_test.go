// Package flashswl's benchmark harness regenerates every table and figure
// of the paper (DAC 2007, Chang/Hsieh/Kuo) and times the ablations called
// out in DESIGN.md. Each BenchmarkTableN / BenchmarkFigureN runs the full
// experiment behind that exhibit once per iteration at the quick scale and
// reports the headline quantity as a custom metric; `go run
// ./cmd/experiments` prints the same rows at the default (larger) scale.
package flashswl_test

import (
	"fmt"
	"testing"
	"time"

	"flashswl/internal/core"
	"flashswl/internal/experiments"
	"flashswl/internal/ftl"
	"flashswl/internal/hotdata"
	"flashswl/internal/mtd"
	"flashswl/internal/nand"
	"flashswl/internal/sim"
	"flashswl/internal/trace"
	"flashswl/internal/workload"
)

// BenchmarkTable1BETSize regenerates Table 1 (BET bytes across capacities
// and mapping modes).
func BenchmarkTable1BETSize(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		for _, r := range rows {
			for _, v := range r.Bytes {
				total += v
			}
		}
	}
	if total == 0 {
		b.Fatal("empty table")
	}
	// The k=0 / 4 GB corner: 4096 bytes, per the paper.
	b.ReportMetric(float64(experiments.Table1()[0].Bytes[5]), "k0-4GB-bytes")
}

// BenchmarkTable2ExtraErases regenerates Table 2 (worst-case extra block
// erases, analytic).
func BenchmarkTable2ExtraErases(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2()
	}
	b.ReportMetric(rows[0].IncreasedPct, "row1-pct")
}

// BenchmarkTable3ExtraCopies regenerates Table 3 (worst-case extra
// live-page copyings, analytic).
func BenchmarkTable3ExtraCopies(b *testing.B) {
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3()
	}
	b.ReportMetric(rows[0].IncreasedPct, "row1-pct")
}

// BenchmarkTable4EraseDistribution regenerates Table 4 (erase-count
// average/deviation/maximum after the aging span) at the quick scale and
// reports how much SWL shrinks the FTL deviation.
func BenchmarkTable4EraseDistribution(b *testing.B) {
	sc := experiments.QuickScale()
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		aged, err := experiments.RunAged(sc, []int{0, 3}, []float64{100, 1000})
		if err != nil {
			b.Fatal(err)
		}
		rows = aged.Table4()
	}
	// rows[0] is the FTL baseline, rows[1] is FTL+SWL k=0 T=100.
	b.ReportMetric(rows[0].Dev, "ftl-dev")
	b.ReportMetric(rows[1].Dev, "ftl-swl-dev")
}

// benchFigure5 runs one Figure 5 sub-figure at the quick scale and reports
// the first-failure improvement of SWL(k=0, T=100) over the baseline.
func benchFigure5(b *testing.B, layer sim.LayerKind) {
	sc := experiments.QuickScale()
	var s *experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = experiments.Figure5(sc, layer, []int{0, 3}, []float64{100, 1000})
		if err != nil {
			b.Fatal(err)
		}
	}
	best := s.CellAt(0, 100)
	b.ReportMetric(s.Baseline*365*24, "baseline-hours")
	b.ReportMetric(100*(best.Value/s.Baseline-1), "improvement-pct")
}

// BenchmarkFigure5FirstFailure regenerates Figure 5 for both layers.
func BenchmarkFigure5FirstFailure(b *testing.B) {
	b.Run("FTL", func(b *testing.B) { benchFigure5(b, sim.FTL) })
	b.Run("NFTL", func(b *testing.B) { benchFigure5(b, sim.NFTL) })
}

// benchAgedRatio runs the fixed-span sweep and reports the (k=0, T=100)
// ratio for one layer, either erases (Figure 6) or copies (Figure 7).
func benchAgedRatio(b *testing.B, layer sim.LayerKind, copies bool) {
	sc := experiments.QuickScale()
	var v float64
	for i := 0; i < b.N; i++ {
		aged, err := experiments.RunAged(sc, []int{0}, []float64{100})
		if err != nil {
			b.Fatal(err)
		}
		s := aged.Figure6(layer)
		if copies {
			s = aged.Figure7(layer)
		}
		v = s.CellAt(0, 100).Value
	}
	b.ReportMetric(v, "ratio-pct")
}

// BenchmarkFigure6ExtraErases regenerates Figure 6 (increased ratio of
// block erases, baseline = 100%).
func BenchmarkFigure6ExtraErases(b *testing.B) {
	b.Run("FTL", func(b *testing.B) { benchAgedRatio(b, sim.FTL, false) })
	b.Run("NFTL", func(b *testing.B) { benchAgedRatio(b, sim.NFTL, false) })
}

// BenchmarkFigure7ExtraCopies regenerates Figure 7 (increased ratio of
// live-page copyings, baseline = 100%).
func BenchmarkFigure7ExtraCopies(b *testing.B) {
	b.Run("FTL", func(b *testing.B) { benchAgedRatio(b, sim.FTL, true) })
	b.Run("NFTL", func(b *testing.B) { benchAgedRatio(b, sim.NFTL, true) })
}

// --- Ablations (DESIGN.md §4) ---

// quickFirstFailure runs one quick-scale FTL run to first failure.
func quickFirstFailure(b *testing.B, mutate func(*sim.Config)) time.Duration {
	b.Helper()
	sc := experiments.QuickScale()
	cfg := sim.Config{
		Geometry:        sc.Geometry,
		Cell:            nand.MLC2,
		Endurance:       sc.Endurance,
		Layer:           sim.FTL,
		LogicalSectors:  sc.LogicalSectors,
		SWL:             true,
		K:               0,
		T:               5,
		NoSpare:         true,
		Seed:            sc.Seed,
		StopOnFirstWear: true,
		MaxEvents:       sc.MaxEvents,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := sim.Run(cfg, sc.Model.Infinite(sc.Seed))
	if err != nil {
		b.Fatal(err)
	}
	if res.Err != nil {
		b.Fatal(res.Err)
	}
	return res.FirstWear
}

// BenchmarkAblationScanPolicy compares the paper's cyclic BET scan against
// random block-set selection (§3.3 surmises they behave alike).
func BenchmarkAblationScanPolicy(b *testing.B) {
	b.Run("cyclic", func(b *testing.B) {
		var fw time.Duration
		for i := 0; i < b.N; i++ {
			fw = quickFirstFailure(b, nil)
		}
		b.ReportMetric(fw.Hours(), "firstwear-hours")
	})
	b.Run("random", func(b *testing.B) {
		var fw time.Duration
		for i := 0; i < b.N; i++ {
			fw = quickFirstFailure(b, func(c *sim.Config) { c.SelectRandom = true })
		}
		b.ReportMetric(fw.Hours(), "firstwear-hours")
	})
}

// BenchmarkAblationFrontier compares the paper's single FTL write frontier
// (relocated cold data mixes with hot writes) against a dual frontier.
func BenchmarkAblationFrontier(b *testing.B) {
	b.Run("single", func(b *testing.B) {
		var fw time.Duration
		for i := 0; i < b.N; i++ {
			fw = quickFirstFailure(b, nil)
		}
		b.ReportMetric(fw.Hours(), "firstwear-hours")
	})
	b.Run("dual", func(b *testing.B) {
		var fw time.Duration
		for i := 0; i < b.N; i++ {
			fw = quickFirstFailure(b, func(c *sim.Config) { c.FTLDualFrontier = true })
		}
		b.ReportMetric(fw.Hours(), "firstwear-hours")
	})
}

// BenchmarkAblationWatermark compares the paper's 0.2% garbage-collection
// trigger against an eager 5% watermark.
func BenchmarkAblationWatermark(b *testing.B) {
	for _, cfg := range []struct {
		name string
		frac float64
	}{{"paper-0.2pct", 0.002}, {"eager-5pct", 0.05}} {
		b.Run(cfg.name, func(b *testing.B) {
			var fw time.Duration
			for i := 0; i < b.N; i++ {
				fw = quickFirstFailure(b, func(c *sim.Config) { c.GCFreeFraction = cfg.frac })
			}
			b.ReportMetric(fw.Hours(), "firstwear-hours")
		})
	}
}

// BenchmarkAblationPersistence times the dual-buffer BET snapshot cycle
// through reserved flash blocks.
func BenchmarkAblationPersistence(b *testing.B) {
	chip := nand.New(nand.Config{
		Geometry:  nand.Geometry{Blocks: 64, PagesPerBlock: 32, PageSize: 2048, SpareSize: 64},
		StoreData: true,
	})
	dev := mtd.New(chip)
	drv, err := ftl.New(dev, ftl.Config{LogicalPages: 1500, Reserved: []int{0, 1}})
	if err != nil {
		b.Fatal(err)
	}
	lv, err := core.NewLeveler(core.Config{Blocks: 64, K: 0, Threshold: 100}, drv)
	if err != nil {
		b.Fatal(err)
	}
	store, err := mtd.NewBlockStore(dev, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewPersister(store)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		lv.OnErase(i % 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Save(lv); err != nil {
			b.Fatal(err)
		}
		if err := p.Load(lv); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Hot-path microbenchmarks ---

// BenchmarkBETUpdate times SWL-BETUpdate (Algorithm 2), the code that runs
// on every block erase.
func BenchmarkBETUpdate(b *testing.B) {
	drv := nopCleaner{}
	lv, err := core.NewLeveler(core.Config{Blocks: 4096, K: 0, Threshold: 1e18}, drv)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lv.OnErase(i & 4095)
	}
}

type nopCleaner struct{}

func (nopCleaner) EraseBlockSet(findex, k int) error { return nil }

// BenchmarkLayerWritePage times each translation layer's host write path,
// amortized garbage collection included, on drivers built through the sim
// layer table. Uniform random writes are NFTL's worst case: replacement
// blocks fill slowly, the free pool stays pinned, and nearly every write
// runs the merge-based garbage collector — expect it orders of magnitude
// above the page-mapping layers, which is exactly the NFTL behaviour behind
// the paper's Table 4 (its erase counts dwarf FTL's over the same span).
// DFTL adds the translation-page traffic of its cache misses to FTL's path.
func BenchmarkLayerWritePage(b *testing.B) {
	for _, name := range []string{"ftl", "nftl", "dftl"} {
		b.Run(name, func(b *testing.B) {
			kind, err := sim.ParseLayer(name)
			if err != nil {
				b.Fatal(err)
			}
			r, err := sim.NewRunner(sim.Config{
				Geometry: nand.MLC2Geometry(256), Endurance: 1 << 30, Layer: kind, NoSpare: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			drv := r.Layer()
			n := drv.LogicalPages()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := drv.WritePage(int(uint(i*2654435761)%uint(n)), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkloadSegment times synthetic trace generation, the substrate
// every simulation consumes.
func BenchmarkWorkloadSegment(b *testing.B) {
	m := workload.PaperScaled(1 << 17)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(m.Segment(i%m.Segments())) == 0 {
			b.Fatal("empty segment")
		}
	}
}

// BenchmarkAblationHotSplit compares plain FTL+SWL against FTL with the
// multi-hash hot-data identifier routing cold writes to their own frontier.
func BenchmarkAblationHotSplit(b *testing.B) {
	run := func(b *testing.B, split bool) {
		sc := experiments.QuickScale()
		var fw time.Duration
		for i := 0; i < b.N; i++ {
			chipCfg := nand.Config{Geometry: sc.Geometry, Cell: nand.MLC2, Endurance: sc.Endurance}
			var onWear func(int)
			worn := time.Duration(-1)
			now := time.Duration(0)
			onWear = func(int) {
				if worn < 0 {
					worn = now
				}
			}
			chipCfg.OnWear = onWear
			chip := nand.New(chipCfg)
			var id *hotdata.Identifier
			if split {
				var err error
				id, err = hotdata.New(hotdata.Config{Counters: 4096})
				if err != nil {
					b.Fatal(err)
				}
			}
			drv, err := ftl.New(mtd.New(chip), ftl.Config{
				LogicalPages: int(sc.LogicalSectors) / (sc.Geometry.PageSize / 512),
				NoSpare:      true,
				HotData:      id,
			})
			if err != nil {
				b.Fatal(err)
			}
			lv, err := core.NewLeveler(core.Config{Blocks: sc.Geometry.Blocks, K: 0, Threshold: 5}, drv)
			if err != nil {
				b.Fatal(err)
			}
			drv.SetOnErase(lv.OnErase)
			src := sc.Model.Infinite(sc.Seed)
			spp := sc.Geometry.PageSize / 512
			for worn < 0 {
				e, _ := src.Next()
				now = e.Time
				if e.Op != trace.Write {
					continue
				}
				first := int(e.LBA) / spp
				last := int(e.LBA+int64(e.Count)-1) / spp
				for lpn := first; lpn <= last && lpn < drv.LogicalPages(); lpn++ {
					if err := drv.WritePage(lpn, nil); err != nil {
						b.Fatal(err)
					}
				}
				if lv.NeedsLeveling() {
					if err := lv.Level(); err != nil {
						b.Fatal(err)
					}
				}
			}
			fw = worn
		}
		b.ReportMetric(fw.Hours(), "firstwear-hours")
	}
	b.Run("plain", func(b *testing.B) { run(b, false) })
	b.Run("hotsplit", func(b *testing.B) { run(b, true) })
}

// BenchmarkBaselineTrueFFS compares the paper's BET-guided SW Leveler with
// the periodic-random baseline (reference [16]) at a matched forced-recycle
// budget.
func BenchmarkBaselineTrueFFS(b *testing.B) {
	sc := experiments.QuickScale()
	base := func(mutate func(*sim.Config)) time.Duration {
		cfg := sim.Config{
			Geometry:        sc.Geometry,
			Cell:            nand.MLC2,
			Endurance:       sc.Endurance,
			Layer:           sim.FTL,
			LogicalSectors:  sc.LogicalSectors,
			SWL:             true,
			K:               0,
			T:               5,
			NoSpare:         true,
			Seed:            sc.Seed,
			StopOnFirstWear: true,
			MaxEvents:       sc.MaxEvents,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := sim.Run(cfg, sc.Model.Infinite(sc.Seed))
		if err != nil {
			b.Fatal(err)
		}
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		return res.FirstWear
	}
	b.Run("swl", func(b *testing.B) {
		var fw time.Duration
		for i := 0; i < b.N; i++ {
			fw = base(nil)
		}
		b.ReportMetric(fw.Hours(), "firstwear-hours")
	})
	b.Run("periodic", func(b *testing.B) {
		var fw time.Duration
		for i := 0; i < b.N; i++ {
			fw = base(func(c *sim.Config) { c.Leveler = "periodic"; c.Period = 40 })
		}
		b.ReportMetric(fw.Hours(), "firstwear-hours")
	})
}

// BenchmarkAblationMappingCache sweeps the DFTL translation-page cache
// budget, reporting first-wear time and the translation-page write traffic
// that demand paging costs (the RAM-vs-wear tradeoff behind the paper's
// remark that plain FTL "needs large main-memory space").
func BenchmarkAblationMappingCache(b *testing.B) {
	sc := experiments.QuickScale()
	for _, cache := range []int{2, 8, 64} {
		b.Run(fmt.Sprintf("cache-%d", cache), func(b *testing.B) {
			var fw time.Duration
			for i := 0; i < b.N; i++ {
				cfg := sim.Config{
					Geometry:        sc.Geometry,
					Cell:            nand.MLC2,
					Endurance:       sc.Endurance,
					Layer:           sim.DFTL,
					LogicalSectors:  sc.LogicalSectors,
					SWL:             true,
					K:               0,
					T:               5,
					NoSpare:         true,
					DFTLCache:       cache,
					Seed:            sc.Seed,
					StopOnFirstWear: true,
					MaxEvents:       sc.MaxEvents,
				}
				res, err := sim.Run(cfg, sc.Model.Infinite(sc.Seed))
				if err != nil {
					b.Fatal(err)
				}
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				fw = res.FirstWear
			}
			b.ReportMetric(fw.Hours(), "firstwear-hours")
		})
	}
}
