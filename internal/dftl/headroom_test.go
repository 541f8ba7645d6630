package dftl

import (
	"errors"
	"math/rand"
	"testing"

	"flashswl/internal/mtd"
	"flashswl/internal/nand"
)

// uniformWrites drives n uniformly random page writes (math/rand, seed 1)
// into a fresh driver on a 256 × 32 × 2 KB chip exporting the given share of
// the raw pages. It returns the first write error and the most watermark
// collections any single write ran.
func uniformWrites(t *testing.T, exportPct, n int) (d *Driver, maxRounds int64, err error) {
	t.Helper()
	geo := nand.Geometry{Blocks: 256, PagesPerBlock: 32, PageSize: 2048, SpareSize: 64}
	d, err = New(mtd.New(nand.New(nand.Config{Geometry: geo})), Config{
		LogicalPages: geo.Blocks * geo.PagesPerBlock * exportPct / 100,
		NoSpare:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		before := d.counters.GCRuns
		if err := d.WritePage(rng.Intn(d.LogicalPages()), nil); err != nil {
			return d, maxRounds, err
		}
		if r := d.counters.GCRuns - before; r > maxRounds {
			maxRounds = r
		}
	}
	return d, maxRounds, nil
}

// TestGCLivelockIsBoundedError pins the headroom loop's give-up rule. At an
// 80 % export every live data copy faults a translation page in and flushes
// a dirty one out, so a victim frees no more space than recycling it
// consumes: the loop used to spin forever (> 100 000 erases inside one
// WritePage). It must now surface ErrNoSpace.
func TestGCLivelockIsBoundedError(t *testing.T) {
	d, _, err := uniformWrites(t, 80, 400000)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("80%% export: got %v after %d erases, want ErrNoSpace", err, d.counters.Erases)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Errorf("state after giving up: %v", err)
	}
}

// TestGCBoundLeavesHealthyRunsAlone is the other side: at a 70 % export the
// same traffic completes, with exactly the work it did before the bound
// existed.
func TestGCBoundLeavesHealthyRunsAlone(t *testing.T) {
	d, maxRounds, err := uniformWrites(t, 70, 400000)
	if err != nil {
		t.Fatalf("70%% export: %v", err)
	}
	if got := d.counters.Erases; got != 81806 {
		t.Errorf("erases = %d, want 81806", got)
	}
	if maxRounds > 5 {
		t.Errorf("a single write ran %d collections, want at most 5", maxRounds)
	}
}
