package nftl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"flashswl/internal/mtd"
	"flashswl/internal/nand"
)

// newTestNFTL builds a small device: 16 blocks × 4 pages, 8 virtual blocks
// (32 logical pages).
func newTestNFTL(t *testing.T, cfg Config) (*Driver, *mtd.Driver) {
	t.Helper()
	dev := mtd.New(nand.New(nand.Config{
		Geometry:  nand.Geometry{Blocks: 16, PagesPerBlock: 4, PageSize: 32, SpareSize: 16},
		StoreData: true,
	}))
	if cfg.VirtualBlocks == 0 {
		cfg.VirtualBlocks = 8
	}
	d, err := New(dev, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, dev
}

func pageData(tag int) []byte { return bytes.Repeat([]byte{byte(tag)}, 32) }

func TestWriteReadRoundTrip(t *testing.T) {
	d, _ := newTestNFTL(t, Config{})
	for lpn := 0; lpn < 32; lpn++ {
		if err := d.WritePage(lpn, pageData(lpn+1)); err != nil {
			t.Fatalf("WritePage(%d): %v", lpn, err)
		}
	}
	buf := make([]byte, 32)
	for lpn := 0; lpn < 32; lpn++ {
		ok, err := d.ReadPage(lpn, buf)
		if !ok || err != nil {
			t.Fatalf("ReadPage(%d) = %v,%v", lpn, ok, err)
		}
		if buf[0] != byte(lpn+1) {
			t.Fatalf("lpn %d = %d, want %d", lpn, buf[0], lpn+1)
		}
	}
}

func TestFirstWriteLandsInPrimaryAtOffset(t *testing.T) {
	d, dev := newTestNFTL(t, Config{})
	// lpn 6 → vba 1, offset 2.
	if err := d.WritePage(6, pageData(9)); err != nil {
		t.Fatal(err)
	}
	pb := int(d.primary[1])
	if pb < 0 {
		t.Fatal("no primary allocated for vba 1")
	}
	if !dev.Chip().IsProgrammed(pb, 2) {
		t.Error("write must land at offset 2 of the primary block")
	}
	if d.replacement[1] != noBlock {
		t.Error("no replacement should exist yet")
	}
}

func TestOverwriteGoesToReplacementSequentially(t *testing.T) {
	d, dev := newTestNFTL(t, Config{})
	// Figure 2(b): repeated writes to the same offsets spill into the
	// replacement block sequentially.
	_ = d.WritePage(6, pageData(1)) // primary, offset 2
	_ = d.WritePage(6, pageData(2)) // replacement slot 0
	_ = d.WritePage(4, pageData(3)) // primary, offset 0
	_ = d.WritePage(4, pageData(4)) // replacement slot 1
	rb := int(d.replacement[1])
	if rb == noBlock {
		t.Fatal("replacement block not allocated")
	}
	if !dev.Chip().IsProgrammed(rb, 0) || !dev.Chip().IsProgrammed(rb, 1) {
		t.Error("replacement writes must fill slots 0 then 1")
	}
	buf := make([]byte, 32)
	if ok, _ := d.ReadPage(6, buf); !ok || buf[0] != 2 {
		t.Errorf("lpn 6 = %d, want newest 2", buf[0])
	}
	if ok, _ := d.ReadPage(4, buf); !ok || buf[0] != 4 {
		t.Errorf("lpn 4 = %d, want newest 4", buf[0])
	}
}

func TestReplacementFullTriggersMerge(t *testing.T) {
	d, _ := newTestNFTL(t, Config{})
	// Fill the primary page then overwrite lpn 4 four times: the fourth
	// overwrite fills the 4-page replacement block and must merge.
	_ = d.WritePage(4, pageData(1))
	_ = d.WritePage(5, pageData(50))
	for v := 2; v <= 5; v++ {
		if err := d.WritePage(4, pageData(v)); err != nil {
			t.Fatal(err)
		}
	}
	c := d.Counters()
	if c.Merges != 1 {
		t.Fatalf("Merges = %d, want 1", c.Merges)
	}
	if c.Erases != 2 {
		t.Errorf("Erases = %d, want 2 (old primary + replacement)", c.Erases)
	}
	if d.replacement[1] != noBlock {
		t.Error("replacement must be cleared after merge")
	}
	buf := make([]byte, 32)
	if ok, _ := d.ReadPage(4, buf); !ok || buf[0] != 5 {
		t.Errorf("lpn 4 after merge = %d, want 5", buf[0])
	}
	if ok, _ := d.ReadPage(5, buf); !ok || buf[0] != 50 {
		t.Errorf("lpn 5 after merge = %d, want 50 (live sibling preserved)", buf[0])
	}
	// Merged copies: offsets 0 (lpn 4) and 1 (lpn 5) were live → 2 copies.
	if c.LiveCopies != 2 {
		t.Errorf("LiveCopies = %d, want 2", c.LiveCopies)
	}
}

func TestUnmappedReadAndBounds(t *testing.T) {
	d, _ := newTestNFTL(t, Config{})
	buf := []byte{0}
	if ok, err := d.ReadPage(3, buf); ok || err != nil || buf[0] != 0xFF {
		t.Errorf("unmapped read = %v,%v,%x", ok, err, buf)
	}
	if _, err := d.ReadPage(32, nil); !errors.Is(err, ErrBadLPN) {
		t.Errorf("ReadPage(32) = %v", err)
	}
	if err := d.WritePage(-1, nil); !errors.Is(err, ErrBadLPN) {
		t.Errorf("WritePage(-1) = %v", err)
	}
	if d.IsMapped(99) || d.IsMapped(0) {
		t.Error("IsMapped wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	dev := mtd.New(nand.New(nand.Config{Geometry: nand.Geometry{Blocks: 8, PagesPerBlock: 4, PageSize: 32, SpareSize: 16}}))
	if _, err := New(dev, Config{VirtualBlocks: 8}); err == nil {
		t.Error("no slack must fail")
	}
	if _, err := New(dev, Config{VirtualBlocks: -2}); err == nil {
		t.Error("negative virtual blocks must fail")
	}
	if _, err := New(dev, Config{Reserved: []int{8}}); err == nil {
		t.Error("bad reserved block must fail")
	}
	if d, err := New(dev, Config{}); err != nil || d.LogicalPages() <= 0 {
		t.Errorf("defaults should produce a usable driver: %v", err)
	}
}

func TestSteadyStateGC(t *testing.T) {
	d, _ := newTestNFTL(t, Config{})
	rng := rand.New(rand.NewSource(42))
	latest := map[int]byte{}
	for i := 0; i < 2000; i++ {
		lpn := rng.Intn(32)
		v := byte(rng.Intn(250)) + 1
		if err := d.WritePage(lpn, bytes.Repeat([]byte{v}, 32)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		latest[lpn] = v
	}
	buf := make([]byte, 32)
	for lpn, v := range latest {
		if ok, err := d.ReadPage(lpn, buf); !ok || err != nil || buf[0] != v {
			t.Fatalf("lpn %d = %d (ok=%v err=%v), want %d", lpn, buf[0], ok, err, v)
		}
	}
	if d.Counters().Merges == 0 {
		t.Error("sustained overwrites must trigger merges")
	}
	if d.FreeBlocks() < 1 {
		t.Error("free pool exhausted")
	}
}

func TestOnEraseHook(t *testing.T) {
	d, _ := newTestNFTL(t, Config{})
	var count int64
	d.SetOnErase(func(b int) { count++ })
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 600; i++ {
		_ = d.WritePage(rng.Intn(32), nil)
	}
	if count != d.Counters().Erases {
		t.Errorf("hook fired %d, counter %d", count, d.Counters().Erases)
	}
	if count == 0 {
		t.Error("expected erases")
	}
}

func TestEraseBlockSetFoldsColdPrimary(t *testing.T) {
	d, dev := newTestNFTL(t, Config{})
	// Cold data: fill vba 0 completely, never touch it again.
	for lpn := 0; lpn < 4; lpn++ {
		if err := d.WritePage(lpn, pageData(100+lpn)); err != nil {
			t.Fatal(err)
		}
	}
	cold := int(d.primary[0])
	before := d.Counters()
	if err := d.EraseBlockSet(cold, 0); err != nil {
		t.Fatalf("EraseBlockSet: %v", err)
	}
	after := d.Counters()
	if int(d.primary[0]) == cold {
		t.Error("cold primary must move to a fresh block")
	}
	if dev.EraseCount(cold) != 1 {
		t.Errorf("cold block erased %d times, want 1", dev.EraseCount(cold))
	}
	if after.ForcedCopies-before.ForcedCopies != 4 {
		t.Errorf("ForcedCopies delta = %d, want 4", after.ForcedCopies-before.ForcedCopies)
	}
	buf := make([]byte, 32)
	for lpn := 0; lpn < 4; lpn++ {
		if ok, _ := d.ReadPage(lpn, buf); !ok || buf[0] != byte(100+lpn) {
			t.Fatalf("cold lpn %d lost: %d", lpn, buf[0])
		}
	}
}

func TestEraseBlockSetMergesReplacementPair(t *testing.T) {
	d, _ := newTestNFTL(t, Config{})
	_ = d.WritePage(4, pageData(1))
	_ = d.WritePage(4, pageData(2)) // creates replacement
	rb := int(d.replacement[1])
	if rb == noBlock {
		t.Fatal("setup: no replacement")
	}
	if err := d.EraseBlockSet(rb, 0); err != nil {
		t.Fatal(err)
	}
	if d.replacement[1] != noBlock {
		t.Error("pair must be merged")
	}
	buf := make([]byte, 32)
	if ok, _ := d.ReadPage(4, buf); !ok || buf[0] != 2 {
		t.Errorf("lpn 4 = %d, want 2", buf[0])
	}
}

func TestEraseBlockSetOnFreeBlock(t *testing.T) {
	d, dev := newTestNFTL(t, Config{})
	if err := d.EraseBlockSet(15, 0); err != nil {
		t.Fatal(err)
	}
	if dev.EraseCount(15) != 1 {
		t.Errorf("free block erase count = %d, want 1", dev.EraseCount(15))
	}
	if d.FreeBlocks() != 16 {
		t.Errorf("free count = %d, want 16", d.FreeBlocks())
	}
}

func TestEraseBlockSetValidation(t *testing.T) {
	d, _ := newTestNFTL(t, Config{})
	if err := d.EraseBlockSet(-1, 0); err == nil {
		t.Error("negative findex")
	}
	if err := d.EraseBlockSet(0, -1); err == nil {
		t.Error("negative k")
	}
	if err := d.EraseBlockSet(99, 0); err == nil {
		t.Error("out of range set")
	}
}

func TestEraseBlockSetSkipsReserved(t *testing.T) {
	dev := mtd.New(nand.New(nand.Config{
		Geometry:  nand.Geometry{Blocks: 16, PagesPerBlock: 4, PageSize: 32, SpareSize: 16},
		StoreData: true,
	}))
	d, err := New(dev, Config{VirtualBlocks: 6, Reserved: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EraseBlockSet(0, 1); err != nil {
		t.Fatal(err)
	}
	if dev.EraseCount(0) != 0 || dev.EraseCount(1) != 0 {
		t.Error("reserved blocks touched")
	}
}

func TestWearRetirement(t *testing.T) {
	dev := mtd.New(nand.New(nand.Config{
		Geometry:   nand.Geometry{Blocks: 16, PagesPerBlock: 4, PageSize: 32, SpareSize: 16},
		Endurance:  4,
		FailOnWear: true,
		StoreData:  true,
	}))
	d, err := New(dev, Config{VirtualBlocks: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var writeErr error
	for i := 0; i < 5000; i++ {
		if writeErr = d.WritePage(rng.Intn(24), pageData(i)); writeErr != nil {
			break
		}
	}
	if d.Counters().RetiredBlocks == 0 {
		t.Fatalf("no blocks retired on endurance-4 device (err=%v)", writeErr)
	}
	if writeErr != nil && !errors.Is(writeErr, ErrNoSpace) {
		t.Fatalf("unexpected failure mode: %v", writeErr)
	}
}

// checkInvariants cross-checks the block bookkeeping.
func checkInvariants(d *Driver) error {
	free := 0
	for b := 0; b < d.nblocks; b++ {
		switch d.State[b] {
		case roleFree:
			free++
			if d.owner[b] != noBlock {
				return fmt.Errorf("free block %d has owner %d", b, d.owner[b])
			}
		case rolePrimary:
			vba := int(d.owner[b])
			if vba < 0 || vba >= len(d.primary) || int(d.primary[vba]) != b {
				return fmt.Errorf("primary block %d not owned by its vba", b)
			}
		case roleReplacement:
			vba := int(d.owner[b])
			if vba < 0 || vba >= len(d.replacement) || int(d.replacement[vba]) != b {
				return fmt.Errorf("replacement block %d not owned by its vba", b)
			}
			if d.replWrites[b] < 1 || int(d.replWrites[b]) >= d.ppb {
				return fmt.Errorf("replacement block %d has %d writes (full ones must merge)", b, d.replWrites[b])
			}
		}
	}
	if free != d.Free {
		return fmt.Errorf("freeCount %d, recount %d", d.Free, free)
	}
	for vba := range d.primary {
		if rb := d.replacement[vba]; rb != noBlock && d.primary[vba] == noBlock {
			return fmt.Errorf("vba %d has replacement without primary", vba)
		}
	}
	return nil
}

// Property: arbitrary interleavings of writes and forced recycles keep the
// structures consistent and the newest data readable.
func TestNFTLInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		dev := mtd.New(nand.New(nand.Config{
			Geometry:  nand.Geometry{Blocks: 12, PagesPerBlock: 4, PageSize: 8, SpareSize: 16},
			StoreData: true,
		}))
		d, err := New(dev, Config{VirtualBlocks: 5})
		if err != nil {
			return false
		}
		latest := map[int]byte{}
		buf := make([]byte, 8)
		for _, op := range ops {
			if op%7 == 6 {
				if err := d.EraseBlockSet(int(op)%12, 0); err != nil {
					return false
				}
			} else {
				lpn := int(op) % 20
				v := byte(op)
				if err := d.WritePage(lpn, bytes.Repeat([]byte{v}, 8)); err != nil {
					return false
				}
				latest[lpn] = v
			}
			if err := checkInvariants(d); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		for lpn, v := range latest {
			if ok, _ := d.ReadPage(lpn, buf); !ok || buf[0] != v {
				t.Logf("lpn %d = %d, want %d", lpn, buf[0], v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// errPowerCut simulates power loss for the mount crash tests.
var errPowerCut = errors.New("power cut")

// TestNFTLNeedsRandomProgramOrder documents the MLC incompatibility the
// paper's §5.1 alludes to: NFTL's primary blocks are written in-place at
// arbitrary offsets, which violates sequential-program-only chips.
func TestNFTLNeedsRandomProgramOrder(t *testing.T) {
	dev := mtd.New(nand.New(nand.Config{
		Geometry:          nand.Geometry{Blocks: 16, PagesPerBlock: 4, PageSize: 32, SpareSize: 16},
		SequentialProgram: true,
		StoreData:         true,
	}))
	d, err := New(dev, Config{VirtualBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Offset 2 then offset 0 of the same virtual block: the second write
	// must fail on a sequential-program chip.
	if err := d.WritePage(6, pageData(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(4, pageData(2)); !errors.Is(err, nand.ErrProgOrder) {
		t.Fatalf("in-place backward program err = %v, want ErrProgOrder", err)
	}
}

func newECCNFTL(t *testing.T) (*Driver, *nand.Chip) {
	t.Helper()
	chip := nand.New(nand.Config{
		Geometry:  nand.Geometry{Blocks: 16, PagesPerBlock: 4, PageSize: 512, SpareSize: 32},
		StoreData: true,
	})
	d, err := New(mtd.New(chip), Config{VirtualBlocks: 8, ECC: true, ReadRefresh: true})
	if err != nil {
		t.Fatalf("New with ECC: %v", err)
	}
	return d, chip
}

func TestNFTLECCCorrectsAndRefreshes(t *testing.T) {
	d, chip := newECCNFTL(t)
	full := bytes.Repeat([]byte{0x6A}, 512)
	if err := d.WritePage(5, full); err != nil {
		t.Fatal(err)
	}
	pb := int(d.primary[1])
	if err := chip.FlipBit(pb, 1, 900); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	ok, err := d.ReadPage(5, buf)
	if !ok || err != nil {
		t.Fatalf("read = %v,%v", ok, err)
	}
	if !bytes.Equal(buf, full) {
		t.Fatal("bit rot not corrected")
	}
	// Two corrections: one fixed the host read's buffer, and the refresh
	// merge scrubbed the still-rotten stored copy while relocating it.
	c := d.Counters()
	if c.ECCCorrected != 2 || c.Refreshes != 1 {
		t.Errorf("corrected=%d refreshes=%d, want 2,1", c.ECCCorrected, c.Refreshes)
	}
	// The refresh merged the virtual block: a fresh primary holds clean data.
	if int(d.primary[1]) == pb {
		t.Error("read refresh must relocate the virtual block")
	}
	if ok, err := d.ReadPage(5, buf); !ok || err != nil || !bytes.Equal(buf, full) {
		t.Fatalf("after refresh: %v %v", ok, err)
	}
}

func TestNFTLECCScrubOnMerge(t *testing.T) {
	d, chip := newECCNFTL(t)
	full := bytes.Repeat([]byte{0x17}, 512)
	if err := d.WritePage(4, full); err != nil {
		t.Fatal(err)
	}
	pb := int(d.primary[1])
	_ = chip.FlipBit(pb, 0, 123)
	// Force the merge via the leveler entry point; the copy must scrub.
	if err := d.EraseBlockSet(pb, 0); err != nil {
		t.Fatal(err)
	}
	if d.Counters().ECCCorrected != 1 {
		t.Errorf("merge did not scrub: %d", d.Counters().ECCCorrected)
	}
	buf := make([]byte, 512)
	if ok, err := d.ReadPage(4, buf); !ok || err != nil || !bytes.Equal(buf, full) {
		t.Fatalf("after scrub: %v %v", ok, err)
	}
}

func TestNFTLECCValidation(t *testing.T) {
	chip := nand.New(nand.Config{
		Geometry: nand.Geometry{Blocks: 16, PagesPerBlock: 4, PageSize: 512, SpareSize: 16},
	})
	if _, err := New(mtd.New(chip), Config{VirtualBlocks: 8, ECC: true}); err == nil {
		t.Error("ECC with a tiny spare must fail")
	}
	if _, err := New(mtd.New(chip), Config{VirtualBlocks: 8, ECC: true, NoSpare: true}); err == nil {
		t.Error("ECC with NoSpare must fail")
	}
	if _, err := New(mtd.New(chip), Config{VirtualBlocks: 8, ReadRefresh: true}); err == nil {
		t.Error("ReadRefresh without ECC must fail")
	}
}

// TestMergeOntoGrownBadBlockKeepsFreeCount: a merge whose fresh primary
// rejects every program erases that block and restarts on another; the
// rejected block must rejoin the free pool, counted and queued.
func TestMergeOntoGrownBadBlockKeepsFreeCount(t *testing.T) {
	bad := -1
	chip := nand.New(nand.Config{
		Geometry:  nand.Geometry{Blocks: 16, PagesPerBlock: 4, PageSize: 32, SpareSize: 16},
		StoreData: true,
		FaultHook: func(op nand.Op, block, page int) error {
			if op == nand.OpProgram && block == bad {
				return fmt.Errorf("grown bad: %w", nand.ErrInjected)
			}
			return nil
		},
	})
	d, err := New(mtd.New(chip), Config{VirtualBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	// Page 0 of vba 0 into the primary (block 0), then three overwrites into
	// the replacement (block 1); the fourth fills it and triggers a merge,
	// whose new primary is the head of the free queue: block 2.
	for i := 0; i < 4; i++ {
		if err := d.WritePage(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	bad = 2
	if err := d.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if d.State[2] != roleFree || d.State[3] != rolePrimary || d.Free != 15 {
		t.Errorf("block 2 in state %d, block 3 in state %d, %d free; want the bad block free again and block 3 the new primary",
			d.State[2], d.State[3], d.Free)
	}
}
