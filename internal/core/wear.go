package core

import (
	"errors"
	"fmt"
)

// bitset is a fixed-size bitmap over block or block-set indices (barred
// blocks, skip-marked sets, pool membership). The []uint64 words are wire
// format where a strategy exports one.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) has(i int) bool { return s[i>>6]&(1<<uint(i&63)) != 0 }
func (s bitset) set(i int)      { s[i>>6] |= 1 << uint(i&63) }
func (s bitset) clear(i int)    { s[i>>6] &^= 1 << uint(i&63) }

// wearTable is the exact erase history the counter-keeping strategies (gap,
// dual-pool, the SAWL wrapper) share: one count per block — the RAM the
// paper's BET exists to avoid (Table 1) — plus the blocks barred from wear
// leveling, and the maximum and the minimum-with-multiplicity over the rest,
// maintained per erase so the trigger test reads two fields.
type wearTable struct {
	erases []int32 // per-block erase counts
	barred bitset  // excluded blocks: never candidates, never counted

	eligible int   // number of non-barred blocks
	max      int32 // max erase count over eligible blocks
	min      int32 // min erase count over eligible blocks
	minCount int   // eligible blocks sitting at min
}

// newWearTable builds the table for a device of the given block count with
// the listed blocks barred.
func newWearTable(blocks int, exclude []int) (wearTable, error) {
	w := wearTable{erases: make([]int32, blocks), barred: newBitset(blocks)}
	for _, b := range exclude {
		if b < 0 || b >= blocks {
			return wearTable{}, fmt.Errorf("core: excluded block %d out of range", b)
		}
		w.barred.set(b)
	}
	for b := 0; b < blocks; b++ {
		if !w.barred.has(b) {
			w.eligible++
		}
	}
	if w.eligible == 0 {
		return wearTable{}, errors.New("core: every block is excluded")
	}
	w.minCount = w.eligible
	return w, nil
}

// record counts one erase of block b, reporting false when the block is out
// of range or barred and so left uncounted. The minimum is rescanned only
// when the last block sitting at it moves up, so the total rescan work is
// bounded by the highest erase count.
//
//lint:hotpath per-erase leveler path; see core/alloc_test.go
func (w *wearTable) record(b int) bool {
	if b < 0 || b >= len(w.erases) || w.barred.has(b) {
		return false
	}
	old := w.erases[b]
	w.erases[b] = old + 1
	if old+1 > w.max {
		w.max = old + 1
	}
	if old == w.min {
		w.minCount--
		if w.minCount == 0 {
			w.min, w.minCount = w.minOutside(nil)
		}
	}
	return true
}

// minOutside scans for the minimum erase count, and how many blocks sit at
// it, over the eligible blocks not in out (nil: over all of them); both are
// zero when no such block exists.
func (w *wearTable) minOutside(out bitset) (min int32, count int) {
	for b, v := range w.erases {
		if w.barred.has(b) || (out != nil && out.has(b)) {
			continue
		}
		switch {
		case count == 0 || v < min:
			min, count = v, 1
		case v == min:
			count++
		}
	}
	return min, count
}

// gap returns the max-min erase-count spread over eligible blocks.
func (w *wearTable) gap() int64 { return int64(w.max - w.min) }

// sum adds up the erase counts over the block range [lo, hi): a strategy
// compares it across a recycle to tell whether the set produced any
// accountable erase.
func (w *wearTable) sum(lo, hi int) int64 {
	var sum int64
	for _, v := range w.erases[lo:hi] {
		sum += int64(v)
	}
	return sum
}

// check validates an imported erase-count array against the table's shape.
func (w *wearTable) check(erases []int32) error {
	if len(erases) != len(w.erases) {
		return fmt.Errorf("%d erase counts, want %d", len(erases), len(w.erases))
	}
	for _, v := range erases {
		if v < 0 {
			return fmt.Errorf("negative erase count %d", v)
		}
	}
	return nil
}

// load replaces the counts with a checked array and recomputes the trackers,
// which state records do not carry.
func (w *wearTable) load(erases []int32) {
	copy(w.erases, erases)
	w.max = 0
	for b, v := range w.erases {
		if !w.barred.has(b) && v > w.max {
			w.max = v
		}
	}
	w.min, w.minCount = w.minOutside(nil)
}
