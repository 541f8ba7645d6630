package ftl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"flashswl/internal/ecc"
	"flashswl/internal/gc"
	"flashswl/internal/hotdata"
	"flashswl/internal/mtd"
	"flashswl/internal/nand"
)

// newTestFTL builds a small device: 16 blocks × 4 pages, 40 logical pages.
func newTestFTL(t *testing.T, cfg Config) (*Driver, *mtd.Driver) {
	t.Helper()
	dev := mtd.New(nand.New(nand.Config{
		Geometry:  nand.Geometry{Blocks: 16, PagesPerBlock: 4, PageSize: 32, SpareSize: 16},
		StoreData: true,
	}))
	if cfg.LogicalPages == 0 {
		cfg.LogicalPages = 40
	}
	d, err := New(dev, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, dev
}

func pageData(tag int) []byte {
	return bytes.Repeat([]byte{byte(tag)}, 32)
}

func TestWriteReadRoundTrip(t *testing.T) {
	d, _ := newTestFTL(t, Config{})
	for lpn := 0; lpn < 10; lpn++ {
		if err := d.WritePage(lpn, pageData(lpn+1)); err != nil {
			t.Fatalf("WritePage(%d): %v", lpn, err)
		}
	}
	buf := make([]byte, 32)
	for lpn := 0; lpn < 10; lpn++ {
		ok, err := d.ReadPage(lpn, buf)
		if err != nil || !ok {
			t.Fatalf("ReadPage(%d) = %v,%v", lpn, ok, err)
		}
		if !bytes.Equal(buf, pageData(lpn+1)) {
			t.Fatalf("lpn %d read %x, want %x", lpn, buf[0], lpn+1)
		}
	}
	c := d.Counters()
	if c.HostWrites != 10 || c.HostReads != 10 {
		t.Errorf("counters = %+v", c)
	}
}

func TestOverwriteReturnsNewest(t *testing.T) {
	d, _ := newTestFTL(t, Config{})
	for v := 1; v <= 5; v++ {
		if err := d.WritePage(7, pageData(v)); err != nil {
			t.Fatalf("write v%d: %v", v, err)
		}
	}
	buf := make([]byte, 32)
	if ok, err := d.ReadPage(7, buf); !ok || err != nil {
		t.Fatal(err)
	}
	if buf[0] != 5 {
		t.Errorf("read %d, want newest version 5", buf[0])
	}
}

func TestUnmappedRead(t *testing.T) {
	d, _ := newTestFTL(t, Config{})
	buf := []byte{0, 0}
	ok, err := d.ReadPage(3, buf)
	if err != nil || ok {
		t.Fatalf("unmapped read = %v,%v, want false,nil", ok, err)
	}
	if buf[0] != 0xFF || buf[1] != 0xFF {
		t.Errorf("unmapped read buf = %x, want FF filler", buf)
	}
	if d.IsMapped(3) {
		t.Error("IsMapped(3) = true for never-written page")
	}
}

func TestBadLPN(t *testing.T) {
	d, _ := newTestFTL(t, Config{})
	if _, err := d.ReadPage(-1, nil); !errors.Is(err, ErrBadLPN) {
		t.Errorf("ReadPage(-1) = %v", err)
	}
	if _, err := d.ReadPage(40, nil); !errors.Is(err, ErrBadLPN) {
		t.Errorf("ReadPage(40) = %v", err)
	}
	if err := d.WritePage(40, nil); !errors.Is(err, ErrBadLPN) {
		t.Errorf("WritePage(40) = %v", err)
	}
	if d.IsMapped(99) {
		t.Error("IsMapped out of range")
	}
}

func TestConfigValidation(t *testing.T) {
	dev := mtd.New(nand.New(nand.Config{Geometry: nand.Geometry{Blocks: 8, PagesPerBlock: 4, PageSize: 32, SpareSize: 16}}))
	if _, err := New(dev, Config{LogicalPages: 8 * 4}); err == nil {
		t.Error("logical space equal to physical must fail (no slack)")
	}
	if _, err := New(dev, Config{Reserved: []int{99}}); err == nil {
		t.Error("out-of-range reserved block must fail")
	}
	if _, err := New(dev, Config{LogicalPages: -1}); err == nil {
		t.Error("negative logical space must fail")
	}
}

func TestSteadyStateGC(t *testing.T) {
	d, dev := newTestFTL(t, Config{})
	rng := rand.New(rand.NewSource(42))
	// Write 20× the logical space; GC must keep this running forever.
	for i := 0; i < 800; i++ {
		lpn := rng.Intn(40)
		if err := d.WritePage(lpn, pageData(lpn)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	c := d.Counters()
	if c.GCRuns == 0 || c.Erases == 0 {
		t.Errorf("GC never ran over 800 writes: %+v", c)
	}
	if d.FreeBlocks() < 1 {
		t.Errorf("free pool exhausted: %d", d.FreeBlocks())
	}
	// All mapped pages still readable with right content.
	buf := make([]byte, 32)
	for lpn := 0; lpn < 40; lpn++ {
		if !d.IsMapped(lpn) {
			continue
		}
		if ok, err := d.ReadPage(lpn, buf); !ok || err != nil {
			t.Fatalf("ReadPage(%d): %v,%v", lpn, ok, err)
		}
		if buf[0] != byte(lpn) {
			t.Fatalf("lpn %d corrupted after GC: %d", lpn, buf[0])
		}
	}
	// Sanity: erases spread over more than a couple of blocks (dynamic WL).
	spread := 0
	for b := 0; b < 16; b++ {
		if dev.EraseCount(b) > 0 {
			spread++
		}
	}
	if spread < 8 {
		t.Errorf("erases touched only %d blocks; dynamic WL should spread them", spread)
	}
}

func TestAllocatorRotatesFIFO(t *testing.T) {
	d, dev := newTestFTL(t, Config{})
	// The first allocation takes the head of the free queue (block 0).
	if err := d.WritePage(0, pageData(1)); err != nil {
		t.Fatal(err)
	}
	if !dev.Chip().IsProgrammed(0, 0) {
		t.Error("first allocation must come from the queue head (block 0)")
	}
	// Recycle block 0: it rejoins at the tail, so sustained writes must
	// cycle through every other block before block 0 is reused.
	if err := d.EraseBlockSet(0, 0); err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for i := 0; i < 15*4; i++ { // fill 15 more blocks (4 pages each)
		if err := d.WritePage(1+i%30, nil); err != nil {
			t.Fatal(err)
		}
	}
	for b := 1; b < 16; b++ {
		if d.State[b] != gc.BlockFree {
			used[b] = true
		}
	}
	if len(used) < 10 {
		t.Errorf("FIFO rotation touched only %d blocks", len(used))
	}
}

func TestOnEraseHook(t *testing.T) {
	d, _ := newTestFTL(t, Config{})
	var erased []int
	d.SetOnErase(func(b int) { erased = append(erased, b) })
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		_ = d.WritePage(rng.Intn(40), nil)
	}
	if int64(len(erased)) != d.Counters().Erases {
		t.Errorf("hook fired %d times, counters say %d", len(erased), d.Counters().Erases)
	}
	if len(erased) == 0 {
		t.Error("expected erases in steady state")
	}
}

func TestEraseBlockSetMovesColdData(t *testing.T) {
	d, _ := newTestFTL(t, Config{})
	// Make block sets deterministic: write cold data first so it lands in
	// the first allocated blocks.
	for lpn := 0; lpn < 8; lpn++ {
		if err := d.WritePage(lpn, pageData(100+lpn)); err != nil {
			t.Fatal(err)
		}
	}
	coldBlock := int(d.mapTable[0]) / d.ppb
	before := d.Counters()
	findex := coldBlock // k=0
	if err := d.EraseBlockSet(findex, 0); err != nil {
		t.Fatalf("EraseBlockSet: %v", err)
	}
	after := d.Counters()
	if after.ForcedSets != before.ForcedSets+1 {
		t.Errorf("ForcedSets = %d", after.ForcedSets)
	}
	if after.ForcedErases == 0 {
		t.Error("forced recycle must erase the set's blocks")
	}
	if after.ForcedCopies == 0 {
		t.Error("cold data must be copied out")
	}
	// Cold data intact and remapped off the recycled block.
	buf := make([]byte, 32)
	for lpn := 0; lpn < 8; lpn++ {
		if !d.IsMapped(lpn) {
			continue
		}
		ok, err := d.ReadPage(lpn, buf)
		if !ok || err != nil || buf[0] != byte(100+lpn) {
			t.Fatalf("lpn %d after forced recycle: ok=%v err=%v data=%d", lpn, ok, err, buf[0])
		}
		if int(d.mapTable[lpn])/d.ppb == coldBlock {
			t.Errorf("lpn %d still maps to recycled block %d", lpn, coldBlock)
		}
	}
}

func TestEraseBlockSetOnFreeBlockErases(t *testing.T) {
	d, dev := newTestFTL(t, Config{})
	// Block 15 is free (nothing written yet anywhere).
	if err := d.EraseBlockSet(15, 0); err != nil {
		t.Fatalf("EraseBlockSet: %v", err)
	}
	if dev.EraseCount(15) != 1 {
		t.Errorf("free block erase count = %d, want 1", dev.EraseCount(15))
	}
	if d.FreeBlocks() != 16 {
		t.Errorf("free count changed: %d", d.FreeBlocks())
	}
}

func TestEraseBlockSetOnActiveBlock(t *testing.T) {
	d, _ := newTestFTL(t, Config{})
	if err := d.WritePage(5, pageData(5)); err != nil {
		t.Fatal(err)
	}
	activeBlock := int(d.mapTable[5]) / d.ppb
	if err := d.EraseBlockSet(activeBlock, 0); err != nil {
		t.Fatalf("EraseBlockSet on active: %v", err)
	}
	buf := make([]byte, 32)
	if ok, _ := d.ReadPage(5, buf); !ok || buf[0] != 5 {
		t.Fatal("data lost when recycling the active block")
	}
	// The driver must still be able to write.
	if err := d.WritePage(6, pageData(6)); err != nil {
		t.Fatalf("write after active recycle: %v", err)
	}
}

func TestEraseBlockSetWithK(t *testing.T) {
	d, dev := newTestFTL(t, Config{})
	// k=2: set 0 covers blocks 0..3; all free → 4 bare erases.
	if err := d.EraseBlockSet(0, 2); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		if dev.EraseCount(b) != 1 {
			t.Errorf("block %d erase count = %d, want 1", b, dev.EraseCount(b))
		}
	}
	if dev.EraseCount(4) != 0 {
		t.Error("block 4 outside the set was erased")
	}
}

func TestEraseBlockSetValidation(t *testing.T) {
	d, _ := newTestFTL(t, Config{})
	if err := d.EraseBlockSet(-1, 0); err == nil {
		t.Error("negative findex must fail")
	}
	if err := d.EraseBlockSet(0, -1); err == nil {
		t.Error("negative k must fail")
	}
	if err := d.EraseBlockSet(16, 0); err == nil {
		t.Error("set beyond device must fail")
	}
	// Partial tail set is fine.
	if err := d.EraseBlockSet(3, 2); err != nil {
		t.Errorf("tail set: %v", err)
	}
}

func TestEraseBlockSetSkipsReserved(t *testing.T) {
	dev := mtd.New(nand.New(nand.Config{
		Geometry:  nand.Geometry{Blocks: 16, PagesPerBlock: 4, PageSize: 32, SpareSize: 16},
		StoreData: true,
	}))
	d, err := New(dev, Config{LogicalPages: 30, Reserved: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EraseBlockSet(0, 1); err != nil {
		t.Fatal(err)
	}
	if dev.EraseCount(0) != 0 || dev.EraseCount(1) != 0 {
		t.Error("reserved blocks must never be touched")
	}
}

func TestWearRetirement(t *testing.T) {
	dev := mtd.New(nand.New(nand.Config{
		Geometry:   nand.Geometry{Blocks: 16, PagesPerBlock: 4, PageSize: 32, SpareSize: 16},
		Endurance:  4,
		FailOnWear: true,
		StoreData:  true,
	}))
	d, err := New(dev, Config{LogicalPages: 24})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var writeErr error
	writes := 0
	for i := 0; i < 5000; i++ {
		if writeErr = d.WritePage(rng.Intn(24), pageData(i)); writeErr != nil {
			break
		}
		writes++
	}
	if d.Counters().RetiredBlocks == 0 {
		t.Fatalf("no blocks retired after %d writes on endurance-4 device (err=%v)", writes, writeErr)
	}
	// Either the device died with ErrNoSpace (acceptable once the pool is
	// gone) or it is still running with retired blocks.
	if writeErr != nil && !errors.Is(writeErr, ErrNoSpace) {
		t.Fatalf("unexpected failure mode: %v", writeErr)
	}
}

func TestMountRebuildsMapping(t *testing.T) {
	d, dev := newTestFTL(t, Config{})
	rng := rand.New(rand.NewSource(9))
	want := map[int]byte{}
	for i := 0; i < 300; i++ {
		lpn := rng.Intn(40)
		v := byte(rng.Intn(250)) + 1
		if err := d.WritePage(lpn, bytes.Repeat([]byte{v}, 32)); err != nil {
			t.Fatal(err)
		}
		want[lpn] = v
	}
	// "Power cycle": mount a fresh driver over the same device.
	m, err := Mount(dev, Config{LogicalPages: 40})
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	buf := make([]byte, 32)
	for lpn, v := range want {
		ok, err := m.ReadPage(lpn, buf)
		if !ok || err != nil {
			t.Fatalf("mounted ReadPage(%d) = %v,%v", lpn, ok, err)
		}
		if buf[0] != v {
			t.Fatalf("lpn %d after mount = %d, want %d", lpn, buf[0], v)
		}
	}
	// And it keeps working: more writes, then re-verify a few.
	for i := 0; i < 200; i++ {
		lpn := rng.Intn(40)
		v := byte(rng.Intn(250)) + 1
		if err := m.WritePage(lpn, bytes.Repeat([]byte{v}, 32)); err != nil {
			t.Fatalf("post-mount write: %v", err)
		}
		want[lpn] = v
	}
	for lpn, v := range want {
		if ok, _ := m.ReadPage(lpn, buf); !ok || buf[0] != v {
			t.Fatalf("lpn %d after post-mount writes = %d, want %d", lpn, buf[0], v)
		}
	}
}

func TestMountRequiresSpare(t *testing.T) {
	_, dev := newTestFTL(t, Config{})
	if _, err := Mount(dev, Config{LogicalPages: 40, NoSpare: true}); err == nil {
		t.Error("Mount must refuse NoSpare configs")
	}
}

// checkInvariants verifies the translation structures agree with each other.
func checkInvariants(d *Driver) error {
	mapped := 0
	for lpn, ppn := range d.mapTable {
		if ppn == invalidPPN {
			continue
		}
		mapped++
		if d.Rmap[ppn] != int32(lpn) {
			return fmt.Errorf("lpn %d → ppn %d but rmap says %d", lpn, ppn, d.Rmap[ppn])
		}
	}
	totalValid := 0
	free := 0
	for b := 0; b < d.nblocks; b++ {
		v := 0
		for p := 0; p < d.ppb; p++ {
			if d.Rmap[b*d.ppb+p] != invalidPPN {
				v++
			}
		}
		if v != int(d.Valid[b]) {
			return fmt.Errorf("block %d valid count %d, recount %d", b, d.Valid[b], v)
		}
		totalValid += v
		if d.State[b] == gc.BlockFree {
			free++
			if d.Written[b] != 0 {
				return fmt.Errorf("free block %d has %d written pages", b, d.Written[b])
			}
		}
	}
	if mapped != totalValid {
		return fmt.Errorf("mapped %d != total valid %d", mapped, totalValid)
	}
	if free != d.Free {
		return fmt.Errorf("freeCount %d, recount %d", d.Free, free)
	}
	return nil
}

// Property: under arbitrary interleavings of writes and forced recycles,
// the translation structures stay consistent and data stays readable.
func TestFTLInvariantProperty(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		dev := mtd.New(nand.New(nand.Config{
			Geometry:  nand.Geometry{Blocks: 12, PagesPerBlock: 4, PageSize: 8, SpareSize: 16},
			StoreData: true,
		}))
		d, err := New(dev, Config{LogicalPages: 24})
		if err != nil {
			return false
		}
		for _, op := range ops {
			if op%5 == 4 { // occasional forced recycle of a random set
				if err := d.EraseBlockSet(int(op)%12, 0); err != nil {
					return false
				}
			} else {
				if err := d.WritePage(int(op)%24, []byte{byte(op)}); err != nil {
					return false
				}
			}
			if err := checkInvariants(d); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHotDataSplitSeparatesStreams(t *testing.T) {
	dev := mtd.New(nand.New(nand.Config{
		Geometry:  nand.Geometry{Blocks: 32, PagesPerBlock: 8, PageSize: 32, SpareSize: 16},
		StoreData: true,
	}))
	id, err := hotdata.New(hotdata.Config{Counters: 256, DecayEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(dev, Config{LogicalPages: 120, HotData: id})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up the identifier: lpns 0..3 become hot.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 64; i++ {
		if err := d.WritePage(rng.Intn(4), pageData(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave: hot overwrites with one-shot cold writes.
	for lpn := 50; lpn < 90; lpn++ {
		if err := d.WritePage(lpn, pageData(2)); err != nil {
			t.Fatal(err)
		}
		if err := d.WritePage(rng.Intn(4), pageData(3)); err != nil {
			t.Fatal(err)
		}
	}
	// No block should mix currently-valid hot (0..3) and cold (50..89) pages.
	hotBlocks := map[int]bool{}
	coldBlocks := map[int]bool{}
	for lpn := 0; lpn < 4; lpn++ {
		if d.IsMapped(lpn) {
			hotBlocks[int(d.mapTable[lpn])/d.ppb] = true
		}
	}
	for lpn := 50; lpn < 90; lpn++ {
		if d.IsMapped(lpn) {
			coldBlocks[int(d.mapTable[lpn])/d.ppb] = true
		}
	}
	for b := range hotBlocks {
		if coldBlocks[b] {
			t.Fatalf("block %d holds both hot and cold valid data", b)
		}
	}
	if id.Stats().Writes == 0 {
		t.Error("identifier never consulted")
	}
}

func newECCFTL(t *testing.T) (*Driver, *nand.Chip) {
	t.Helper()
	chip := nand.New(nand.Config{
		Geometry:  nand.Geometry{Blocks: 16, PagesPerBlock: 4, PageSize: 512, SpareSize: 32},
		StoreData: true,
	})
	d, err := New(mtd.New(chip), Config{LogicalPages: 40, ECC: true})
	if err != nil {
		t.Fatalf("New with ECC: %v", err)
	}
	return d, chip
}

func fullPage(tag byte) []byte { return bytes.Repeat([]byte{tag}, 512) }

func TestECCCorrectsBitRot(t *testing.T) {
	d, chip := newECCFTL(t)
	if err := d.WritePage(5, fullPage(0x3C)); err != nil {
		t.Fatal(err)
	}
	ppn := int(d.mapTable[5])
	if err := chip.FlipBit(ppn/d.ppb, ppn%d.ppb, 777); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	ok, err := d.ReadPage(5, buf)
	if !ok || err != nil {
		t.Fatalf("read = %v,%v", ok, err)
	}
	if !bytes.Equal(buf, fullPage(0x3C)) {
		t.Fatal("bit rot not corrected")
	}
	if d.Counters().ECCCorrected != 1 {
		t.Errorf("ECCCorrected = %d, want 1", d.Counters().ECCCorrected)
	}
}

func TestECCDetectsDoubleError(t *testing.T) {
	d, chip := newECCFTL(t)
	if err := d.WritePage(5, fullPage(0x3C)); err != nil {
		t.Fatal(err)
	}
	ppn := int(d.mapTable[5])
	_ = chip.FlipBit(ppn/d.ppb, ppn%d.ppb, 100)
	_ = chip.FlipBit(ppn/d.ppb, ppn%d.ppb, 101)
	buf := make([]byte, 512)
	if _, err := d.ReadPage(5, buf); !errors.Is(err, ecc.ErrUncorrectable) {
		t.Fatalf("double error read = %v, want ErrUncorrectable", err)
	}
}

func TestECCScrubOnRecycle(t *testing.T) {
	d, chip := newECCFTL(t)
	if err := d.WritePage(7, fullPage(0xA1)); err != nil {
		t.Fatal(err)
	}
	ppn := int(d.mapTable[7])
	_ = chip.FlipBit(ppn/d.ppb, ppn%d.ppb, 4000)
	// Force the block to recycle: the copy must scrub the flipped bit.
	if err := d.EraseBlockSet(ppn/d.ppb, 0); err != nil {
		t.Fatal(err)
	}
	if d.Counters().ECCCorrected != 1 {
		t.Errorf("scrub did not correct: %d", d.Counters().ECCCorrected)
	}
	buf := make([]byte, 512)
	if ok, err := d.ReadPage(7, buf); !ok || err != nil || !bytes.Equal(buf, fullPage(0xA1)) {
		t.Fatalf("data after scrub: ok=%v err=%v", ok, err)
	}
}

func TestECCConfigValidation(t *testing.T) {
	chip := nand.New(nand.Config{
		Geometry: nand.Geometry{Blocks: 16, PagesPerBlock: 4, PageSize: 512, SpareSize: 16},
	})
	if _, err := New(mtd.New(chip), Config{LogicalPages: 40, ECC: true}); err == nil {
		t.Error("ECC with a 16-byte spare must fail (needs 14+6)")
	}
	if _, err := New(mtd.New(chip), Config{LogicalPages: 40, ECC: true, NoSpare: true}); err == nil {
		t.Error("ECC with NoSpare must fail")
	}
}

func TestECCPartialWritesPassThrough(t *testing.T) {
	d, _ := newECCFTL(t)
	// A sub-page write has no codes; reads must not try to correct it.
	if err := d.WritePage(3, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if ok, err := d.ReadPage(3, buf); !ok || err != nil {
		t.Fatalf("partial-page read = %v,%v", ok, err)
	}
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Error("partial data wrong")
	}
}

func TestECCSurvivesReadDisturb(t *testing.T) {
	// Read-disturb flips accumulate in the stored page; ECC corrects each
	// read and read refresh relocates the page before a second flip can
	// land in the same chunk, keeping the data intact through 4000 reads.
	chip := nand.New(nand.Config{
		Geometry:         nand.Geometry{Blocks: 16, PagesPerBlock: 4, PageSize: 512, SpareSize: 32},
		StoreData:        true,
		ReadDisturbEvery: 50,
	})
	d, err := New(mtd.New(chip), Config{LogicalPages: 40, ECC: true, ReadRefresh: true})
	if err != nil {
		t.Fatal(err)
	}
	want := fullPage(0x77)
	if err := d.WritePage(9, want); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for i := 0; i < 4000; i++ {
		ok, err := d.ReadPage(9, buf)
		if err != nil || !ok {
			t.Fatalf("read %d: ok=%v err=%v (corrected so far: %d)", i, ok, err, d.Counters().ECCCorrected)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("read %d returned corrupt data", i)
		}
	}
	if d.Counters().ECCCorrected == 0 {
		t.Error("disturbs never needed correction — model inactive?")
	}
	if d.Counters().Refreshes == 0 {
		t.Error("read refresh never relocated the page")
	}
}

func TestDiscard(t *testing.T) {
	d, _ := newTestFTL(t, Config{})
	if err := d.WritePage(5, pageData(5)); err != nil {
		t.Fatal(err)
	}
	block := int(d.mapTable[5]) / d.ppb
	validBefore := d.Valid[block]
	if err := d.Discard(5); err != nil {
		t.Fatal(err)
	}
	if d.IsMapped(5) {
		t.Error("page still mapped after discard")
	}
	if d.Valid[block] != validBefore-1 {
		t.Error("valid count not decremented")
	}
	if d.Counters().Discards != 1 {
		t.Errorf("Discards = %d", d.Counters().Discards)
	}
	// Idempotent; bad lpn errors.
	if err := d.Discard(5); err != nil || d.Counters().Discards != 1 {
		t.Error("double discard must be a free no-op")
	}
	if err := d.Discard(99); !errors.Is(err, ErrBadLPN) {
		t.Errorf("bad lpn: %v", err)
	}
	// The page can be rewritten afterwards.
	if err := d.WritePage(5, pageData(6)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	if ok, _ := d.ReadPage(5, buf); !ok || buf[0] != 6 {
		t.Error("rewrite after discard failed")
	}
}

func TestDiscardReducesGCCopies(t *testing.T) {
	// Two identical workloads that fill then delete cold data; the one
	// that discards must copy fewer live pages under GC pressure.
	run := func(discard bool) int64 {
		d, _ := newTestFTL(t, Config{})
		for lpn := 0; lpn < 32; lpn++ {
			if err := d.WritePage(lpn, pageData(lpn)); err != nil {
				t.Fatal(err)
			}
		}
		if discard {
			for lpn := 8; lpn < 32; lpn++ {
				if err := d.Discard(lpn); err != nil {
					t.Fatal(err)
				}
			}
		}
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 600; i++ {
			if err := d.WritePage(rng.Intn(8), nil); err != nil {
				t.Fatal(err)
			}
		}
		return d.Counters().LiveCopies
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Errorf("discard did not reduce copies: %d vs %d", with, without)
	}
}

// TestFTLSatisfiesSequentialProgram: the log-structured layers never
// program pages out of order, so they run unmodified on MLC chips that
// enforce it (NFTL's in-place primary writes cannot — the paper's "minor
// modifications" remark).
func TestFTLSatisfiesSequentialProgram(t *testing.T) {
	dev := mtd.New(nand.New(nand.Config{
		Geometry:          nand.Geometry{Blocks: 16, PagesPerBlock: 4, PageSize: 32, SpareSize: 16},
		SequentialProgram: true,
		StoreData:         true,
	}))
	d, err := New(dev, Config{LogicalPages: 40})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 1500; i++ {
		if err := d.WritePage(rng.Intn(40), pageData(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := d.EraseBlockSet(3, 1); err != nil {
		t.Fatalf("forced recycle: %v", err)
	}
}
