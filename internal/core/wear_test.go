package core

import "testing"

// bruteWear recomputes what wearTable tracks incrementally.
func bruteWear(w *wearTable) (max, min int32, minCount int) {
	first := true
	for b, v := range w.erases {
		if w.barred.has(b) {
			continue
		}
		if v > max {
			max = v
		}
		switch {
		case first || v < min:
			min, minCount, first = v, 1, false
		case v == min:
			minCount++
		}
	}
	return max, min, minCount
}

func checkWear(t *testing.T, w *wearTable, when string) {
	t.Helper()
	max, min, minCount := bruteWear(w)
	if w.max != max || w.min != min || w.minCount != minCount {
		t.Fatalf("%s: tracked max/min/minCount = %d/%d/%d, a rescan says %d/%d/%d",
			when, w.max, w.min, w.minCount, max, min, minCount)
	}
}

// TestWearTableMinMultiplicity walks the minimum up through every way it can
// move: the multiplicity draining one block at a time, the rescan when the
// last block at the minimum leaves it, and a rescan landing on a minimum
// several counts higher with its own multiplicity.
func TestWearTableMinMultiplicity(t *testing.T) {
	w, err := newWearTable(6, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if w.eligible != 5 || w.minCount != 5 {
		t.Fatalf("eligible/minCount = %d/%d, want 5/5", w.eligible, w.minCount)
	}
	// Blocks 0 and 1 run ahead to 3; the minimum stays 0 with three holders.
	for i := 0; i < 3; i++ {
		w.record(0)
		w.record(1)
	}
	checkWear(t, &w, "after the hot pair")
	if w.gap() != 3 || w.minCount != 3 {
		t.Fatalf("gap/minCount = %d/%d, want 3/3", w.gap(), w.minCount)
	}
	// Drain the holders one by one; the last one forces the rescan, which
	// must find min 1 held by all three.
	for _, b := range []int{3, 4, 5} {
		w.record(b)
		checkWear(t, &w, "draining the minimum")
	}
	if w.min != 1 || w.minCount != 3 {
		t.Fatalf("min/minCount = %d/%d after the rescan, want 1/3", w.min, w.minCount)
	}
	// Lift 3, 4, 5 to 5: the final rescan jumps the minimum from 1 to 3,
	// where the once-hot pair now sits.
	for i := 0; i < 4; i++ {
		for _, b := range []int{3, 4, 5} {
			w.record(b)
			checkWear(t, &w, "lifting the cold blocks")
		}
	}
	if w.min != 3 || w.minCount != 2 || w.max != 5 {
		t.Fatalf("min/minCount/max = %d/%d/%d, want 3/2/5", w.min, w.minCount, w.max)
	}
}

// TestWearTableBarred: barred and out-of-range blocks are never counted, by
// record or by the trackers, whatever an imported array says about them.
func TestWearTableBarred(t *testing.T) {
	if _, err := newWearTable(4, []int{4}); err == nil {
		t.Error("out-of-range exclusion accepted")
	}
	if _, err := newWearTable(2, []int{0, 1, 1}); err == nil {
		t.Error("excluding every block accepted")
	}
	w, err := newWearTable(4, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{0, -1, 4} {
		if w.record(b) {
			t.Errorf("record(%d) counted a barred or out-of-range block", b)
		}
	}
	if w.erases[0] != 0 || w.max != 0 {
		t.Fatalf("barred erase leaked: erases[0]=%d max=%d", w.erases[0], w.max)
	}
	if !w.record(1) || w.sum(0, 2) != 1 || w.sum(2, 4) != 0 {
		t.Fatalf("record(1) not reflected in the set sums: %d, %d", w.sum(0, 2), w.sum(2, 4))
	}

	if err := w.check([]int32{0, 0, 0}); err == nil {
		t.Error("short erase array accepted")
	}
	if err := w.check([]int32{0, 0, -1, 0}); err == nil {
		t.Error("negative erase count accepted")
	}
	in := []int32{9, 2, 7, 2} // block 0 is barred: its 9 is neither max nor min
	if err := w.check(in); err != nil {
		t.Fatal(err)
	}
	w.load(in)
	checkWear(t, &w, "after load")
	if w.max != 7 || w.min != 2 || w.minCount != 2 {
		t.Fatalf("loaded max/min/minCount = %d/%d/%d, want 7/2/2", w.max, w.min, w.minCount)
	}
}
