// Package core implements the paper's primary contribution: the SW Leveler,
// an efficient static wear leveling mechanism (Chang, Hsieh, Kuo, DAC 2007,
// Section 3). It consists of the Block Erasing Table (BET), the
// SWL-BETUpdate procedure (Algorithm 2) that records block erases, and the
// SWL-Procedure (Algorithm 1) that cyclically selects un-erased block sets
// and asks the hosting Flash Translation Layer's Cleaner to recycle them,
// forcing cold data to move.
//
// The package is deliberately self-contained: it knows nothing about FTL or
// NFTL and drives them only through the Cleaner interface, matching the
// paper's goal of requiring no modification to existing translation layers.
//
// Levelers are confined to the single simulation goroutine that owns the
// chip and driver; none of the types here are safe for concurrent use.
// All randomness flows through a seeded, serializable SplitMix64
// (Config.Rand), so seeded runs are bit-reproducible and a leveler's full
// dynamic state — BET bits, counters, scan position, RNG position — exports
// and imports for checkpoint/resume (see state.go).
package core

import (
	"fmt"
	"math/bits"
)

// BET is the Block Erasing Table: a bit array with one flag per set of 2^k
// contiguous blocks, recording which block sets have had at least one erase
// since the table was last reset (one resetting interval). k = 0 is the
// one-to-one mode of Figure 3(a); k > 0 is the one-to-many mode of 3(b).
type BET struct {
	k      uint
	blocks int
	nsets  int
	fcnt   int
	flags  []uint64
}

// NewBET creates a table covering the given number of blocks with mapping
// mode k (each flag covers 2^k blocks). It panics on nonsensical arguments,
// as the table size is a static configuration decision.
func NewBET(blocks, k int) *BET {
	if blocks <= 0 || k < 0 || k > 30 {
		panic(fmt.Sprintf("core: invalid BET shape: %d blocks, k=%d", blocks, k))
	}
	nsets := setCount(blocks, k)
	return &BET{k: uint(k), blocks: blocks, nsets: nsets, flags: make([]uint64, (nsets+63)/64)}
}

// K returns the mapping mode.
func (t *BET) K() int { return int(t.k) }

// Blocks returns the number of blocks the table covers.
func (t *BET) Blocks() int { return t.blocks }

// Size returns the number of flags in the table (size(BET) in Algorithm 1).
func (t *BET) Size() int { return t.nsets }

// Fcnt returns the number of flags currently set.
func (t *BET) Fcnt() int { return t.fcnt }

// Full reports whether every flag is set.
func (t *BET) Full() bool { return t.fcnt >= t.nsets }

// SetIndex returns the flag index covering the given block.
func (t *BET) SetIndex(bindex int) int { return bindex >> t.k }

// FirstBlock returns the first block of the given flag's block set.
func (t *BET) FirstBlock(findex int) int { return findex << t.k }

// BlockRange returns the half-open block range [lo, hi) covered by a flag;
// the last set may be partial when the block count is not a multiple of 2^k.
func (t *BET) BlockRange(findex int) (lo, hi int) {
	lo = findex << t.k
	hi = lo + 1<<t.k
	if hi > t.blocks {
		hi = t.blocks
	}
	return lo, hi
}

// IsSet reports whether the flag is set.
func (t *BET) IsSet(findex int) bool {
	return t.flags[findex>>6]&(1<<uint(findex&63)) != 0
}

// Set sets the flag with the given index, reporting whether it was newly set.
func (t *BET) Set(findex int) bool {
	w, m := findex>>6, uint64(1)<<uint(findex&63)
	if t.flags[w]&m != 0 {
		return false
	}
	t.flags[w] |= m
	t.fcnt++
	return true
}

// SetBlock sets the flag covering the given block, reporting whether the
// flag was newly set.
func (t *BET) SetBlock(bindex int) bool { return t.Set(t.SetIndex(bindex)) }

// Recount returns the number of set flags by popcounting the flag words —
// an O(size/64) recomputation of what Fcnt tracks incrementally. The
// invariant checker cross-checks the two; any divergence means a flag was
// set or cleared outside Set/Reset.
func (t *BET) Recount() int { return popcount(t.flags) }

func popcount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Reset clears every flag, beginning a new resetting interval.
func (t *BET) Reset() {
	for i := range t.flags {
		t.flags[i] = 0
	}
	t.fcnt = 0
}

// NextClear returns the first flag index at or after from (cyclically) whose
// flag is clear. It reports false when every flag is set. This is the
// cyclic-queue scan of Algorithm 1, steps 9–10, done word-at-a-time.
func (t *BET) NextClear(from int) (int, bool) {
	if t.Full() {
		return 0, false
	}
	if from < 0 || from >= t.nsets {
		from = 0
	}
	i := from
	for scanned := 0; scanned < t.nsets; {
		// Fast path: skip fully-set words.
		if i&63 == 0 && i+64 <= t.nsets && scanned+64 <= t.nsets && t.flags[i>>6] == ^uint64(0) {
			i += 64
			scanned += 64
			if i >= t.nsets {
				i = 0
			}
			continue
		}
		if !t.IsSet(i) {
			return i, true
		}
		i++
		scanned++
		if i >= t.nsets {
			i = 0
		}
	}
	return 0, false
}

// NthClear returns the index of the (n+1)-th clear flag in table order
// (n = 0 selects the lowest-indexed clear flag). It reports false when fewer
// than n+1 flags are clear. Combined with a uniform draw over
// [0, Size()-Fcnt()), this is the rank-select primitive behind the
// SelectRandom policy: every clear flag is equally likely, independent of how
// the set flags cluster around it.
func (t *BET) NthClear(n int) (int, bool) {
	if n < 0 || n >= t.nsets-t.fcnt {
		return 0, false
	}
	for w := 0; w*64 < t.nsets; w++ {
		word := ^t.flags[w] // ones mark clear flags
		if tail := t.nsets - w*64; tail < 64 {
			word &= 1<<uint(tail) - 1 // bits past the last flag are not flags
		}
		c := bits.OnesCount64(word)
		if n >= c {
			n -= c
			continue
		}
		for i := 0; i < n; i++ { // drop the n lowest clear flags of this word
			word &= word - 1
		}
		return w*64 + bits.TrailingZeros64(word), true
	}
	return 0, false
}

// BETSizeBytes returns the RAM footprint of a BET in bytes for a device
// with the given number of blocks and mapping mode k (Table 1 of the paper:
// one bit per block set, rounded up to whole bytes).
func BETSizeBytes(blocks, k int) int {
	return (setCount(blocks, k) + 7) / 8
}
