package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flashswl/internal/sim"
)

// branchScale is the quick scale with branching enabled: the warm-up covers
// a prefix short enough that high-threshold cells can fork from it.
func branchScale(warmup int64) Scale {
	sc := QuickScale()
	sc.BranchWarmupEvents = warmup
	return sc
}

// TestBranchRunBitIdentical checks the core branching claim directly: a cell
// forked from the warm-up produces exactly the result of a from-scratch run
// of the same configuration.
func TestBranchRunBitIdentical(t *testing.T) {
	sc := branchScale(1500)
	w := sc.runWarmup(sim.FTL)
	if w == nil {
		t.Fatal("warm-up did not produce a usable checkpoint")
	}
	if len(w.erases) == 0 {
		t.Fatal("warm-up logged no erases; the replay path is untested")
	}
	cfg := sc.config(sim.FTL, true, 0, 1000)
	cfg.MaxSimTime = sc.aging()
	branched, ok, err := w.branchRun(cfg, sc.source())
	if err != nil {
		t.Fatalf("branchRun: %v", err)
	}
	if !ok {
		t.Fatal("high-threshold cell should branch from a 1500-event warm-up; shorten the warm-up if the workload changed")
	}
	scratch, err := sim.Run(cfg, sc.source())
	if err != nil {
		t.Fatalf("from-scratch run: %v", err)
	}
	if branched.Events != scratch.Events || branched.PageWrites != scratch.PageWrites ||
		branched.SimTime != scratch.SimTime || branched.Erases != scratch.Erases ||
		branched.LiveCopies != scratch.LiveCopies || branched.ForcedErases != scratch.ForcedErases ||
		branched.GCRuns != scratch.GCRuns || branched.Leveler != scratch.Leveler {
		t.Errorf("branched run diverged:\nbranched %+v events=%d erases=%d\nscratch  %+v events=%d erases=%d",
			branched.Leveler, branched.Events, branched.Erases,
			scratch.Leveler, scratch.Events, scratch.Erases)
	}
	if !reflect.DeepEqual(branched.EraseCounts, scratch.EraseCounts) {
		t.Error("branched run's erase-count distribution diverged")
	}
}

// TestBranchFallbackOnEarlyTrigger: a threshold low enough to trigger inside
// the warm-up must refuse to branch.
func TestBranchFallbackOnEarlyTrigger(t *testing.T) {
	sc := branchScale(8000)
	w := sc.runWarmup(sim.FTL)
	if w == nil {
		t.Fatal("8000-event warm-up should be usable at quick scale")
	}
	cfg := sc.config(sim.FTL, true, 0, 100) // scaledT floors near 5: triggers early
	cfg.MaxSimTime = sc.aging()
	_, ok, err := w.branchRun(cfg, sc.source())
	if err != nil {
		t.Fatalf("branchRun: %v", err)
	}
	if ok {
		t.Fatal("low-threshold cell branched although its leveler would have acted during warm-up")
	}
}

// TestBranchedSweepsMatch is the end-to-end guarantee: the figure and
// leaderboard CSVs of a branched sweep are byte-identical to the unbranched
// sweep's. The wear series and the cache grid must match too, which they do
// by not branching: a forked series would lack the prefix's samples, and
// ResumeState rejects a configuration with CachePages.
func TestBranchedSweepsMatch(t *testing.T) {
	plain := QuickScale()
	branched := branchScale(1500)

	p5, err := Figure5(plain, sim.FTL, goldenKs, goldenTs)
	if err != nil {
		t.Fatal(err)
	}
	b5, err := Figure5(branched, sim.FTL, goldenKs, goldenTs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SeriesCSV("fig5", b5, goldenKs, goldenTs), SeriesCSV("fig5", p5, goldenKs, goldenTs); got != want {
		t.Errorf("branched Figure 5 CSV diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}

	var arenas, grids [2]string
	var series [2][]string
	for i, sc := range []Scale{plain, branched} {
		arena, err := RunArena(sc, sim.FTL, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		arenas[i] = ArenaCSV(arena)
		grid, err := RunServeCache(sc, sim.FTL, 0, 100, []int{0, 8})
		if err != nil {
			t.Fatal(err)
		}
		grids[i] = ServeCacheCSV(grid)
		dir := t.TempDir()
		names, err := WriteWearSeries(dir, sc, []sim.LayerKind{sim.FTL}, []int{0}, []float64{1000}, 20)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			body, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			series[i] = append(series[i], string(body))
		}
	}
	if arenas[1] != arenas[0] {
		t.Errorf("branched arena leaderboard diverged:\ngot:\n%s\nwant:\n%s", arenas[1], arenas[0])
	}
	if grids[1] != grids[0] {
		t.Errorf("cache grid under a branching scale diverged:\ngot:\n%s\nwant:\n%s", grids[1], grids[0])
	}
	if !reflect.DeepEqual(series[1], series[0]) {
		t.Error("wear series under a branching scale diverged")
	}

	pAged, err := RunAged(plain, goldenKs, goldenTs)
	if err != nil {
		t.Fatal(err)
	}
	bAged, err := RunAged(branched, goldenKs, goldenTs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Table4CSV(bAged.Table4()), Table4CSV(pAged.Table4()); got != want {
		t.Errorf("branched Table 4 CSV diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
	for _, layer := range []sim.LayerKind{sim.FTL, sim.NFTL} {
		if got, want := SeriesCSV("fig6", bAged.Figure6(layer), goldenKs, goldenTs),
			SeriesCSV("fig6", pAged.Figure6(layer), goldenKs, goldenTs); got != want {
			t.Errorf("branched %s Figure 6 CSV diverged", layer)
		}
		if got, want := SeriesCSV("fig7", bAged.Figure7(layer), goldenKs, goldenTs),
			SeriesCSV("fig7", pAged.Figure7(layer), goldenKs, goldenTs); got != want {
			t.Errorf("branched %s Figure 7 CSV diverged", layer)
		}
	}
}

// BenchmarkBranchSweep measures the wall-clock win of forking a T-sweep
// (baseline plus T ∈ {400, 700, 1000} at k=0) from one shared warm-up
// covering ~39% of the quick-scale aged span — the largest prefix the
// lowest-threshold cell can still branch from. Cells run sequentially so the
// measurement is total simulation work, independent of core count; the
// parallel figure sweeps realize the same saving as reduced CPU time
// whenever cells outnumber cores.
func BenchmarkBranchSweep(b *testing.B) {
	const benchWarmup = 8000 // of ~20.5k aged events at quick scale
	benchTs := []float64{400, 700, 1000}
	cellCfg := func(sc Scale, swl bool, paperT float64) sim.Config {
		cfg := sc.config(sim.FTL, swl, 0, paperT)
		cfg.MaxSimTime = sc.aging()
		return cfg
	}
	b.Run("scratch", func(b *testing.B) {
		sc := QuickScale()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(cellCfg(sc, false, 0), sc.source()); err != nil {
				b.Fatal(err)
			}
			for _, paperT := range benchTs {
				if _, err := sim.Run(cellCfg(sc, true, paperT), sc.source()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("branch", func(b *testing.B) {
		sc := branchScale(benchWarmup)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := sc.runWarmup(sim.FTL)
			if w == nil {
				b.Fatal("warm-up unusable; shrink benchWarmup")
			}
			cells := []sim.Config{cellCfg(sc, false, 0)}
			for _, paperT := range benchTs {
				cells = append(cells, cellCfg(sc, true, paperT))
			}
			for _, cfg := range cells {
				_, ok, err := w.branchRun(cfg, sc.source())
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					b.Fatalf("T=%g cell fell back; shrink benchWarmup", cfg.T)
				}
			}
		}
	})
}
