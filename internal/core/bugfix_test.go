package core

import (
	"errors"
	"testing"
)

// Regression tests for three leveler bugs fixed together:
//
//   1. SelectRandom picked a random *start* and scanned cyclically to the
//      next clear flag, so a clear flag inherited the probability mass of
//      the run of set flags preceding it instead of 1/(clear flags);
//   2. preset all-excluded block sets were counted into the unevenness
//      denominator, deflating the ratio and delaying triggering on devices
//      with reserved blocks;
//   3. a mid-episode Cleaner failure returned without counting the partial
//      episode in Stats.Triggered even though SetsRecycled had advanced (now
//      a conformance case every entrant inherits: conformance_test.go).

func TestNthClearRankSelect(t *testing.T) {
	// Brute-force cross-check over an adversarial pattern spanning word
	// boundaries and a partial tail word.
	bet := NewBET(150, 0)
	for _, f := range []int{0, 1, 63, 64, 65, 100, 149} {
		bet.Set(f)
	}
	var clears []int
	for f := 0; f < bet.Size(); f++ {
		if !bet.IsSet(f) {
			clears = append(clears, f)
		}
	}
	if len(clears) != bet.Size()-bet.Fcnt() {
		t.Fatalf("clear count %d, Size-Fcnt %d", len(clears), bet.Size()-bet.Fcnt())
	}
	for n, want := range clears {
		got, ok := bet.NthClear(n)
		if !ok || got != want {
			t.Fatalf("NthClear(%d) = %d, %v; want %d, true", n, got, ok, want)
		}
	}
	if _, ok := bet.NthClear(len(clears)); ok {
		t.Error("NthClear past the clear count must report false")
	}
	if _, ok := bet.NthClear(-1); ok {
		t.Error("NthClear(-1) must report false")
	}
}

func TestNthClearFullAndEmpty(t *testing.T) {
	bet := NewBET(64, 0)
	for n := 0; n < 64; n++ {
		if got, ok := bet.NthClear(n); !ok || got != n {
			t.Fatalf("empty table: NthClear(%d) = %d, %v", n, got, ok)
		}
	}
	for f := 0; f < 64; f++ {
		bet.Set(f)
	}
	if _, ok := bet.NthClear(0); ok {
		t.Error("full table must have no clear flags")
	}
}

// TestSelectRandomUniformOverClearFlags is the chi-squared-style
// distribution test: with clear flags {0, 1, 2, 63} after a 60-flag set
// run, each must be selected with probability 1/4. The pre-fix
// random-start-then-scan selection gave flag 63 the mass of the whole run
// preceding it (61/64) and flag 0 only 1/64, so this test fails decisively
// on the old code.
func TestSelectRandomUniformOverClearFlags(t *testing.T) {
	const samples = 2000
	counts := map[int]int{}
	boom := errors.New("stop after selection")
	for i := 0; i < samples; i++ {
		c := &fakeCleaner{failErr: boom} // record the selection, mutate nothing
		l, err := NewLeveler(Config{
			Blocks: 64, K: 0, Threshold: 1,
			Select: SelectRandom, Rand: NewSplitMix64(uint64(i + 1)),
		}, c)
		if err != nil {
			t.Fatalf("NewLeveler: %v", err)
		}
		c.l = l
		for b := 3; b < 63; b++ { // set flags 3..62; clear: {0, 1, 2, 63}
			l.OnErase(b)
		}
		if err := l.Level(); !errors.Is(err, boom) {
			t.Fatalf("Level = %v, want the cleaner sentinel", err)
		}
		if len(c.calls) != 1 {
			t.Fatalf("cleaner called %d times, want 1", len(c.calls))
		}
		counts[c.calls[0][0]]++
	}
	clears := []int{0, 1, 2, 63}
	total := 0
	for f, n := range counts {
		found := false
		for _, cf := range clears {
			if f == cf {
				found = true
			}
		}
		if !found {
			t.Fatalf("selected set flag %d", f)
		}
		total += n
	}
	if total != samples {
		t.Fatalf("accounted %d selections, want %d", total, samples)
	}
	expected := float64(samples) / float64(len(clears))
	chi2 := 0.0
	for _, cf := range clears {
		d := float64(counts[cf]) - expected
		chi2 += d * d / expected
	}
	// df = 3; critical value at p = 0.001 is 16.27. The pre-fix bias
	// scores in the thousands.
	if chi2 > 16.27 {
		t.Errorf("selection chi-squared %.1f over clear flags %v (counts %v), want uniform", chi2, clears, counts)
	}
}

// TestPresetsExcludedFromUnevenness pins the trigger point with reserved
// blocks present: 4 of 8 sets are preset, and the leveler must trigger at
// ecnt = T with one organically flagged set — not at T times the preset
// count as the pre-fix denominator had it.
func TestPresetsExcludedFromUnevenness(t *testing.T) {
	c := &fakeCleaner{}
	l, err := NewLeveler(Config{
		Blocks: 8, K: 0, Threshold: 5,
		Exclude: []int{4, 5, 6, 7}, Rand: NewSplitMix64(1),
	}, c)
	if err != nil {
		t.Fatalf("NewLeveler: %v", err)
	}
	c.l = l
	for i := 1; i <= 4; i++ {
		l.OnErase(0)
		if l.NeedsLeveling() {
			t.Fatalf("triggered after %d erases, want exactly at T=5", i)
		}
	}
	l.OnErase(0)
	if got := l.Unevenness(); got != 5 {
		t.Errorf("unevenness = %g, want ecnt/organic-fcnt = 5/1", got)
	}
	if !l.NeedsLeveling() {
		t.Fatal("not triggered at ecnt = T with one organic flag (presets leaked into fcnt)")
	}
	if err := l.Level(); err != nil {
		t.Fatalf("Level: %v", err)
	}
	if len(c.calls) == 0 {
		t.Fatal("Level acted on nothing")
	}
	for _, call := range c.calls {
		if call[0] >= 4 {
			t.Errorf("recycled preset set %d", call[0])
		}
	}
}
