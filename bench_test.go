// Package flashswl's benchmarks measure time: the per-erase leveler update,
// each translation layer's write path, trace generation, and the BET
// snapshot cycle. The paper's tables and figures and the design ablations
// are experiments, not timings: `go run ./cmd/experiments` (with `-only
// ablate` for the ablations) produces them and internal/experiments' golden
// tests pin them. BenchmarkAblationHotSplit is the one ablation still here,
// because sim.Config carries no hot-data option for an experiment cell to set.
package flashswl_test

import (
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

// BenchmarkWorkloadInfinite times one event of the paper's derived trace at
// the benchmark's device size, the substrate every simulation consumes: the
// layout is built once, as in a run, and the fill phase is drained first.
func BenchmarkWorkloadInfinite(b *testing.B) {
	m := workload.PaperScaled(28_832)
	src := m.Infinite(1)
	for e, _ := src.Next(); e.Time < time.Duration(m.FillSegments)*m.SegmentLen; e, _ = src.Next() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := src.Next(); !ok {
			b.Fatal("infinite source ended")
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
