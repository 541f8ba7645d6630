package dftl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"flashswl/internal/core"
	"flashswl/internal/gc"
	"flashswl/internal/mtd"
	"flashswl/internal/nand"
)

// newTestDFTL builds a small device: 32 blocks × 8 pages of 64 B (16
// mapping entries per translation page), 120 logical pages (8 translation
// pages), 2-page cache.
func newTestDFTL(t *testing.T, cfg Config) (*Driver, *mtd.Driver) {
	t.Helper()
	dev := mtd.New(nand.New(nand.Config{
		Geometry: nand.Geometry{Blocks: 32, PagesPerBlock: 8, PageSize: 64, SpareSize: 16},
	}))
	if cfg.LogicalPages == 0 {
		cfg.LogicalPages = 120
	}
	if cfg.CachedTPages == 0 {
		cfg.CachedTPages = 2
	}
	d, err := New(dev, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, dev
}

func TestWriteReadMapping(t *testing.T) {
	d, _ := newTestDFTL(t, Config{})
	for lpn := 0; lpn < 120; lpn += 7 {
		if err := d.WritePage(lpn, nil); err != nil {
			t.Fatalf("WritePage(%d): %v", lpn, err)
		}
	}
	for lpn := 0; lpn < 120; lpn++ {
		want := lpn%7 == 0
		if d.IsMapped(lpn) != want {
			t.Fatalf("IsMapped(%d) = %v, want %v", lpn, d.IsMapped(lpn), want)
		}
		ok, err := d.ReadPage(lpn, nil)
		if err != nil || ok != want {
			t.Fatalf("ReadPage(%d) = %v,%v", lpn, ok, err)
		}
	}
}

func TestBounds(t *testing.T) {
	d, _ := newTestDFTL(t, Config{})
	if err := d.WritePage(-1, nil); !errors.Is(err, ErrBadLPN) {
		t.Errorf("WritePage(-1) = %v", err)
	}
	if _, err := d.ReadPage(120, nil); !errors.Is(err, ErrBadLPN) {
		t.Errorf("ReadPage(120) = %v", err)
	}
	if d.IsMapped(-5) || d.IsMapped(500) {
		t.Error("IsMapped out of range")
	}
}

func TestConfigValidation(t *testing.T) {
	dev := mtd.New(nand.New(nand.Config{Geometry: nand.Geometry{Blocks: 8, PagesPerBlock: 4, PageSize: 64, SpareSize: 16}}))
	if _, err := New(dev, Config{LogicalPages: 8 * 4}); err == nil {
		t.Error("no slack accepted")
	}
	if _, err := New(dev, Config{CachedTPages: -1}); err == nil {
		t.Error("negative cache accepted")
	}
	if _, err := New(dev, Config{Reserved: []int{9}}); err == nil {
		t.Error("bad reserved accepted")
	}
	if d, err := New(dev, Config{}); err != nil || d.LogicalPages() <= 0 {
		t.Errorf("defaults unusable: %v", err)
	}
}

func TestCacheBoundedAndCounted(t *testing.T) {
	d, _ := newTestDFTL(t, Config{CachedTPages: 2})
	// Touch 4 translation pages (16 lpns apart) so evictions must happen.
	for round := 0; round < 3; round++ {
		for _, lpn := range []int{0, 16, 32, 48} {
			if err := d.WritePage(lpn, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(d.cache) > 2 {
		t.Fatalf("cache holds %d pages, budget 2", len(d.cache))
	}
	c := d.Counters()
	if c.CacheMisses == 0 || c.TPageWrites == 0 {
		t.Errorf("expected misses and dirty evictions: %+v", c)
	}
	// Back-to-back accesses to one translation page must hit.
	_ = d.WritePage(0, nil)
	_ = d.WritePage(1, nil)
	c = d.Counters()
	if c.CacheHits == 0 {
		t.Errorf("expected a hit on the second access: %+v", c)
	}
	// Reloading an evicted, previously-flushed page costs a flash read.
	if c.TPageReads == 0 {
		t.Errorf("expected translation page loads from flash: %+v", c)
	}
}

func TestMappingRAMMuchSmallerThanFTL(t *testing.T) {
	d, _ := newTestDFTL(t, Config{CachedTPages: 2})
	ftlRAM := 4 * d.LogicalPages()
	if d.MappingRAM() >= ftlRAM {
		t.Errorf("MappingRAM = %d, plain FTL needs %d — demand paging must be smaller at scale",
			d.MappingRAM(), ftlRAM)
	}
}

func TestSteadyStateGCWithTranslationPages(t *testing.T) {
	d, _ := newTestDFTL(t, Config{})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		if err := d.WritePage(rng.Intn(120), nil); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	c := d.Counters()
	if c.GCRuns == 0 || c.Erases == 0 {
		t.Fatalf("GC never ran: %+v", c)
	}
	if c.TPageCopies == 0 {
		t.Errorf("GC never relocated a translation page: %+v", c)
	}
	if err := checkInvariants(d); err != nil {
		t.Fatal(err)
	}
	// The whole logical space is still addressable.
	for lpn := 0; lpn < 120; lpn++ {
		if _, err := d.ReadPage(lpn, nil); err != nil {
			t.Fatalf("ReadPage(%d): %v", lpn, err)
		}
	}
}

func TestEraseBlockSetWithSWLeveler(t *testing.T) {
	d, dev := newTestDFTL(t, Config{})
	lv, err := core.NewLeveler(core.Config{Blocks: 32, K: 0, Threshold: 4,
		Rand: core.NewSplitMix64(2)}, d)
	if err != nil {
		t.Fatal(err)
	}
	d.SetOnErase(lv.OnErase)
	// Cold fill, then hot churn with leveling.
	for lpn := 20; lpn < 120; lpn++ {
		if err := d.WritePage(lpn, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6000; i++ {
		if err := d.WritePage(i%8, nil); err != nil {
			t.Fatal(err)
		}
		if lv.NeedsLeveling() {
			if err := lv.Level(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if lv.Stats().SetsRecycled == 0 {
		t.Fatal("leveler idle on DFTL")
	}
	// Every block participated.
	zeros := 0
	for b := 0; b < 32; b++ {
		if dev.EraseCount(b) == 0 {
			zeros++
		}
	}
	if zeros > 2 {
		t.Errorf("%d blocks never erased under SWL", zeros)
	}
	if err := checkInvariants(d); err != nil {
		t.Fatal(err)
	}
	// All cold data still mapped.
	for lpn := 20; lpn < 120; lpn++ {
		if !d.IsMapped(lpn) {
			t.Fatalf("cold lpn %d lost", lpn)
		}
	}
}

func TestEraseBlockSetValidation(t *testing.T) {
	d, _ := newTestDFTL(t, Config{})
	if err := d.EraseBlockSet(-1, 0); err == nil {
		t.Error("negative findex")
	}
	if err := d.EraseBlockSet(0, -1); err == nil {
		t.Error("negative k")
	}
	if err := d.EraseBlockSet(99, 0); err == nil {
		t.Error("out of range")
	}
	if err := d.EraseBlockSet(31, 0); err != nil {
		t.Errorf("free-block set: %v", err)
	}
}

// checkInvariants cross-checks rmap, valid counts, GTD, and the shadow.
func checkInvariants(d *Driver) error {
	totalValid := 0
	for b := 0; b < d.nblocks; b++ {
		v := 0
		for p := 0; p < d.ppb; p++ {
			owner := d.Rmap[b*d.ppb+p]
			if owner == invalidPPN {
				continue
			}
			v++
			if owner&tTag != 0 {
				t := int(owner &^ tTag)
				if t >= d.ntpages || int(d.gtd[t]) != b*d.ppb+p {
					return fmt.Errorf("tpage %d rmap/gtd mismatch", t)
				}
			} else {
				lpn := int(owner)
				sh := d.shadowOf(lpn / d.perT)
				if int(sh[lpn%d.perT]) != b*d.ppb+p {
					return fmt.Errorf("lpn %d shadow mismatch", lpn)
				}
			}
		}
		if v != int(d.Valid[b]) {
			return fmt.Errorf("block %d valid %d, recount %d", b, d.Valid[b], v)
		}
		totalValid += v
	}
	free := 0
	for b := 0; b < d.nblocks; b++ {
		if d.State[b] == gc.BlockFree {
			free++
		}
	}
	if free != d.Free {
		return fmt.Errorf("freeCnt %d, recount %d", d.Free, free)
	}
	return nil
}

// Property: random writes and forced recycles keep all structures
// consistent.
func TestDFTLInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		dev := mtd.New(nand.New(nand.Config{
			Geometry: nand.Geometry{Blocks: 16, PagesPerBlock: 4, PageSize: 64, SpareSize: 16},
		}))
		d, err := New(dev, Config{LogicalPages: 30, CachedTPages: 1})
		if err != nil {
			return false
		}
		for _, op := range ops {
			if op%6 == 5 {
				if err := d.EraseBlockSet(int(op)%16, 0); err != nil {
					return false
				}
			} else if err := d.WritePage(int(op)%30, nil); err != nil {
				return false
			}
			if err := checkInvariants(d); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDiscard(t *testing.T) {
	d, _ := newTestDFTL(t, Config{})
	if err := d.WritePage(7, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Discard(7); err != nil {
		t.Fatal(err)
	}
	if d.IsMapped(7) {
		t.Error("still mapped after discard")
	}
	if err := d.Discard(7); err != nil {
		t.Error("double discard must be a no-op")
	}
	if err := d.Discard(-1); err == nil {
		t.Error("bad lpn accepted")
	}
	if err := checkInvariants(d); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(7, nil); err != nil || !d.IsMapped(7) {
		t.Error("rewrite after discard failed")
	}
}

// TestDataSurvivesGC pins the data-carrying path: on a data-retaining
// chip, payloads written through WritePage read back intact even after
// garbage collection has relocated live pages (and their translation
// pages) many times.
func TestDataSurvivesGC(t *testing.T) {
	dev := mtd.New(nand.New(nand.Config{
		Geometry:  nand.Geometry{Blocks: 32, PagesPerBlock: 8, PageSize: 64, SpareSize: 16},
		StoreData: true,
	}))
	d, err := New(dev, Config{LogicalPages: 120, CachedTPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	shadow := make(map[int][]byte)
	buf := make([]byte, 64)
	for i := 0; i < 4000; i++ {
		lpn := rng.Intn(120)
		if rng.Intn(2) == 0 {
			page := make([]byte, 64)
			rng.Read(page)
			if err := d.WritePage(lpn, page); err != nil {
				t.Fatalf("op %d write lpn %d: %v", i, lpn, err)
			}
			shadow[lpn] = page
		} else {
			ok, err := d.ReadPage(lpn, buf)
			if err != nil {
				t.Fatalf("op %d read lpn %d: %v", i, lpn, err)
			}
			want, mapped := shadow[lpn]
			if ok != mapped {
				t.Fatalf("op %d: lpn %d mapped=%v, shadow says %v", i, lpn, ok, mapped)
			}
			if mapped && !bytes.Equal(buf, want) {
				t.Fatalf("op %d: lpn %d payload diverged after %d erases", i, lpn, d.Counters().Erases)
			}
		}
	}
	if d.Counters().Erases == 0 {
		t.Fatal("workload never triggered GC; the test proves nothing")
	}
}
