package gc

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"flashswl/internal/mtd"
	"flashswl/internal/nand"
)

var errNoSpace = errors.New("test: no reclaimable space")

// rig is a Cleaner over an 8-block chip whose erases fail on demand, with
// stub driver callbacks the individual tests replace.
type rig struct {
	*Cleaner
	stats      Counters
	eraseFails map[int]int // block → injected erase failures still to come
	settled    []string    // "b:erased" / "b:retired", in order
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := &rig{eraseFails: map[int]int{}}
	chip := nand.New(nand.Config{
		Geometry: nand.Geometry{Blocks: 8, PagesPerBlock: 4, PageSize: 32, SpareSize: 16},
		FaultHook: func(op nand.Op, block, page int) error {
			if op == nand.OpErase && r.eraseFails[block] > 0 {
				r.eraseFails[block]--
				return fmt.Errorf("erase of block %d: %w", block, nand.ErrInjected)
			}
			return nil
		},
	})
	cfg.Name, cfg.Dev, cfg.NoSpace, cfg.Stats = "test", mtd.New(chip), errNoSpace, &r.stats
	if cfg.Settle == nil {
		cfg.Settle = func(b int, erased bool) {
			r.settled = append(r.settled, fmt.Sprintf("%d:%v", b, erased))
		}
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.Cleaner = &c
	return r
}

// checkFree asserts the pool invariant after an operation.
func (r *rig) checkFree(t *testing.T, after string) {
	t.Helper()
	if err := r.CheckFree(); err != nil {
		t.Fatalf("after %s: %v", after, err)
	}
}

func TestReservedBlockRange(t *testing.T) {
	for _, bad := range []int{-1, 8} {
		_, err := New(Config{
			Name: "test", Reserved: []int{0, bad},
			Dev: mtd.New(nand.New(nand.Config{Geometry: nand.Geometry{Blocks: 8, PagesPerBlock: 4, PageSize: 32, SpareSize: 16}})),
		})
		if err == nil || !strings.HasPrefix(err.Error(), "test: reserved block") {
			t.Errorf("reserved block %d: got %v", bad, err)
		}
	}
	r := newRig(t, Config{Reserved: []int{0, 7, 7}})
	if r.Free != 6 || r.State[0] != BlockReserved || r.State[7] != BlockReserved {
		t.Errorf("reserved {0,7,7}: %d free, states %v", r.Free, r.State)
	}
	r.checkFree(t, "New")
}

func TestWatermarkDefaults(t *testing.T) {
	if w := newRig(t, Config{}).Watermark; w != minFreeBlocks {
		t.Errorf("default watermark %d, want the floor %d", w, minFreeBlocks)
	}
	if w := newRig(t, Config{GCFreeFraction: 0.75}).Watermark; w != 6 {
		t.Errorf("watermark at 75%% of 8 blocks = %d, want 6", w)
	}
}

func TestTakeIsFIFOAndSkipsRetired(t *testing.T) {
	r := newRig(t, Config{Reserved: []int{1}})
	// Block 2 is retired while still queued: two failed erases.
	r.eraseFails[2] = 2
	if err := r.Erase(2); err != nil {
		t.Fatal(err)
	}
	r.checkFree(t, "retiring a queued block")
	if r.State[2] != BlockReserved || r.stats.RetiredBlocks != 1 || r.Free != 6 {
		t.Fatalf("block 2 state %d, %d retired, %d free", r.State[2], r.stats.RetiredBlocks, r.Free)
	}
	var got []int
	for i := 0; i < 3; i++ {
		b, err := r.Take(BlockInUse)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b)
		r.checkFree(t, "Take")
	}
	if fmt.Sprint(got) != "[0 3 4]" {
		t.Errorf("took %v, want [0 3 4]: ascending, without reserved 1 and retired 2", got)
	}
	// A released block rejoins at the tail; a bare erase keeps its place.
	if err := r.Erase(0); err != nil {
		t.Fatal(err)
	}
	r.checkFree(t, "Erase of a block in service")
	if err := r.Erase(6); err != nil {
		t.Fatal(err)
	}
	r.checkFree(t, "bare erase")
	got = got[:0]
	for r.Free > 0 {
		b, err := r.Take(BlockActive)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b)
	}
	if fmt.Sprint(got) != "[5 6 7 0]" {
		t.Errorf("took %v, want [5 6 7 0]", got)
	}
	if _, err := r.Take(BlockActive); err != errNoSpace {
		t.Errorf("Take on an empty pool: %v, want the driver's ErrNoSpace", err)
	}
	r.checkFree(t, "draining the pool")
}

func TestAdoptLeavesTheQueue(t *testing.T) {
	r := newRig(t, Config{})
	r.Adopt(1, BlockInUse)
	r.checkFree(t, "Adopt")
	if err := r.Erase(1); err != nil { // rejoins at the tail, not at its old place
		t.Fatal(err)
	}
	var got []int
	for r.Free > 0 {
		b, _ := r.Take(BlockActive)
		got = append(got, b)
	}
	if fmt.Sprint(got) != "[0 2 3 4 5 6 7 1]" {
		t.Errorf("took %v, want the adopted block last", got)
	}
}

func TestEraseRetriesOnceThenRetires(t *testing.T) {
	r := newRig(t, Config{})
	var hooked []int
	r.SetOnErase(func(b int) { hooked = append(hooked, b) })
	b, _ := r.Take(BlockInUse)

	r.eraseFails[b] = 1 // transient: the retry succeeds
	if err := r.Erase(b); err != nil {
		t.Fatal(err)
	}
	r.checkFree(t, "retried erase")
	if r.stats.EraseRetries != 1 || r.stats.Erases != 1 || r.stats.RetiredBlocks != 0 || r.State[b] != BlockFree {
		t.Errorf("transient fault: %+v, state %d", r.stats, r.State[b])
	}

	c, _ := r.Take(BlockInUse)
	r.eraseFails[c] = 2 // persistent: retired, not freed, no erase reported
	if err := r.Erase(c); err != nil {
		t.Fatal(err)
	}
	r.checkFree(t, "retirement")
	if r.stats.EraseRetries != 2 || r.stats.Erases != 1 || r.stats.RetiredBlocks != 1 || r.State[c] != BlockReserved {
		t.Errorf("persistent fault: %+v, state %d", r.stats, r.State[c])
	}
	if fmt.Sprint(hooked) != fmt.Sprint([]int{b}) {
		t.Errorf("erase hook saw %v, want only the successful erase of block %d", hooked, b)
	}
	if want := fmt.Sprintf("[%d:true %d:false]", b, c); fmt.Sprint(r.settled) != want {
		t.Errorf("settled %v, want %s", r.settled, want)
	}
}

func TestEnsureHeadroomGivesUpWithoutProgress(t *testing.T) {
	rounds := 0
	r := newRig(t, Config{
		GCFreeFraction: 1, // always under the watermark
		Victim:         func() (int, bool) { return 0, true },
		Recycle:        func(int) error { rounds++; return nil }, // frees nothing
	})
	err := r.EnsureHeadroom()
	if !errors.Is(err, errNoSpace) || !strings.Contains(err.Error(), "no progress") {
		t.Fatalf("got %v, want ErrNoSpace for lack of progress", err)
	}
	if rounds != 8 || r.stats.GCRuns != 8 {
		t.Errorf("%d recycles, %d GC runs; want one per block of the device", rounds, r.stats.GCRuns)
	}

	r = newRig(t, Config{GCFreeFraction: 1, Victim: func() (int, bool) { return 0, false }})
	if err := r.EnsureHeadroom(); err != errNoSpace {
		t.Errorf("no victim: got %v, want ErrNoSpace", err)
	}
}

func TestEraseBlockSetSkipsBlocksAlreadyErased(t *testing.T) {
	var reclaimed []int
	var r *rig
	r = newRig(t, Config{Reclaim: func(b int) error {
		reclaimed = append(reclaimed, b)
		if b == 4 {
			// Recycling block 4 also frees its partner 6 (a merge).
			if err := r.Erase(6); err != nil {
				return err
			}
		}
		return r.Erase(b)
	}})
	if err := r.EraseBlockSet(1, 2); err != nil { // blocks 4..7
		t.Fatal(err)
	}
	if fmt.Sprint(reclaimed) != "[4 5 7]" {
		t.Errorf("reclaimed %v, want [4 5 7]: block 6 was erased with 4", reclaimed)
	}
	if r.stats.ForcedSets != 1 || r.stats.ForcedErases != 4 || r.stats.Erases != 4 || r.Forced() {
		t.Errorf("forced accounting: %+v, still forced=%v", r.stats, r.Forced())
	}
	r.checkFree(t, "EraseBlockSet")
	for _, arg := range [][2]int{{-1, 0}, {0, -1}, {8, 0}, {2, 2}} {
		if err := r.EraseBlockSet(arg[0], arg[1]); err == nil {
			t.Errorf("EraseBlockSet(%d, %d) accepted", arg[0], arg[1])
		}
	}
}
