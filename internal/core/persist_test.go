package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// memStore is an in-memory SnapshotStore with injectable corruption.
type memStore struct {
	slots   [][]byte
	failAll bool
}

func newMemStore(n int) *memStore { return &memStore{slots: make([][]byte, n)} }

func (s *memStore) Slots() int { return len(s.slots) }

func (s *memStore) WriteSnapshot(slot int, data []byte) error {
	if s.failAll {
		return errors.New("io error")
	}
	s.slots[slot] = append([]byte(nil), data...)
	return nil
}

func (s *memStore) ReadSnapshot(slot int) ([]byte, error) {
	if s.slots[slot] == nil {
		return nil, errors.New("empty")
	}
	return s.slots[slot], nil
}

// forEachEntrant runs a persistence case once per registered strategy: the
// snapshot is the strategy's own ExportState record, so the dual-buffer
// protocol covers all of them through one code path.
func forEachEntrant(t *testing.T, fn func(t *testing.T, spec LevelerSpec)) {
	t.Helper()
	for _, spec := range LevelerSpecs() {
		t.Run(spec.Name, func(t *testing.T) { fn(t, spec) })
	}
}

// driven builds the entrant and runs the conformance workload for n erases.
func driven(t *testing.T, spec LevelerSpec, n int) LevelerModule {
	t.Helper()
	lv, _ := buildModule(t, spec, 3)
	drive(t, lv, 0, n)
	return lv
}

// savedTwice returns a store holding an older snapshot (600 erases, seq 1 in
// slot 1) and a newer one (900 erases, seq 2 in slot 0), plus the older
// state record.
func savedTwice(t *testing.T, spec LevelerSpec) (*memStore, []byte) {
	t.Helper()
	lv := driven(t, spec, 600)
	older := lv.ExportState()
	store := newMemStore(2)
	p, _ := NewPersister(store)
	if err := p.Save(lv); err != nil {
		t.Fatal(err)
	}
	drive(t, lv, 600, 900)
	if err := p.Save(lv); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(lv.ExportState(), older) {
		t.Fatal("the two snapshots hold the same state")
	}
	return store, older
}

// loadFresh loads the store into a new instance of the entrant.
func loadFresh(t *testing.T, spec LevelerSpec, store *memStore) (LevelerModule, *Persister) {
	t.Helper()
	restored, _ := buildModule(t, spec, 999)
	p, _ := NewPersister(store)
	if err := p.Load(restored); err != nil {
		t.Fatalf("Load: %v", err)
	}
	return restored, p
}

func TestPersistRoundTrip(t *testing.T) {
	forEachEntrant(t, func(t *testing.T, spec LevelerSpec) {
		lv := driven(t, spec, 1500)
		store := newMemStore(2)
		p, err := NewPersister(store)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Save(lv); err != nil {
			t.Fatalf("Save: %v", err)
		}
		restored, _ := loadFresh(t, spec, store)
		if !bytes.Equal(restored.ExportState(), lv.ExportState()) {
			t.Error("restored state differs from the saved one")
		}
	})
}

func TestPersistDualBufferAlternates(t *testing.T) {
	forEachEntrant(t, func(t *testing.T, spec LevelerSpec) {
		store, _ := savedTwice(t, spec) // seq 1 → slot 1, seq 2 → slot 0
		if store.slots[0] == nil || store.slots[1] == nil {
			t.Fatal("two saves must populate both slots")
		}
		if &store.slots[0][0] == &store.slots[1][0] {
			t.Fatal("slots must hold independent copies")
		}
	})
}

func TestPersistFallsBackToOlderSlot(t *testing.T) {
	forEachEntrant(t, func(t *testing.T, spec LevelerSpec) {
		store, older := savedTwice(t, spec)
		// Simulate a crash mid-write of the newer snapshot (seq 2 → slot 0).
		store.slots[0] = store.slots[0][:len(store.slots[0])-2]
		restored, p := loadFresh(t, spec, store)
		if !bytes.Equal(restored.ExportState(), older) {
			t.Error("restored from the wrong snapshot")
		}
		// The persister resumed at the older sequence, so the next save
		// writes the *other* slot, not the surviving good one.
		if err := p.Save(restored); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPersistFallsBackOnCorruptNewest(t *testing.T) {
	// Unlike the truncation test above, the newer snapshot here has the
	// right length and an intact header — the damage is a flipped bit in
	// the middle of the payload, caught only by the CRC. Load must fall
	// back to the older slot and resume its sequence.
	forEachEntrant(t, func(t *testing.T, spec LevelerSpec) {
		store, older := savedTwice(t, spec)
		store.slots[0][len(store.slots[0])/2] ^= 0x08
		restored, p := loadFresh(t, spec, store)
		if !bytes.Equal(restored.ExportState(), older) {
			t.Error("restored from the wrong snapshot")
		}
		if got := p.Seq(); got != 1 {
			t.Errorf("Seq() = %d, want 1 (resumed from the surviving snapshot)", got)
		}
		// The next save must overwrite the corrupt slot, not the survivor.
		if err := p.Save(restored); err != nil {
			t.Fatal(err)
		}
		if p.Seq() != 2 {
			t.Errorf("Seq() after save = %d, want 2", p.Seq())
		}
		if _, p3 := loadFresh(t, spec, store); p3.Seq() != 2 {
			t.Errorf("repaired store restores seq %d, want 2", p3.Seq())
		}
	})
}

func TestPersistNoSavedState(t *testing.T) {
	forEachEntrant(t, func(t *testing.T, spec LevelerSpec) {
		restored, _ := buildModule(t, spec, 3)
		p, _ := NewPersister(newMemStore(2))
		if err := p.Load(restored); !errors.Is(err, ErrNoSavedState) {
			t.Fatalf("Load on empty store err = %v, want ErrNoSavedState", err)
		}
	})
}

// TestPersistRejectsShapeMismatch: a snapshot taken under another k, another
// block count, or by another strategy is unusable, and the receiver stays as
// it was.
func TestPersistRejectsShapeMismatch(t *testing.T) {
	forEachEntrant(t, func(t *testing.T, spec LevelerSpec) {
		store := newMemStore(2)
		p, _ := NewPersister(store)
		if err := p.Save(driven(t, spec, 600)); err != nil { // blocks=64, k=1
			t.Fatal(err)
		}
		otherK, otherBlocks := confConfig(3), confConfig(3)
		otherK.K = 2
		otherBlocks.Blocks = 32
		for name, cfg := range map[string]BuildConfig{"k": otherK, "block": otherBlocks} {
			other, err := spec.Build(cfg, &confCleaner{})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Load(other); !errors.Is(err, ErrNoSavedState) {
				t.Errorf("%s-mismatched snapshot must be unusable, got %v", name, err)
			}
		}
		for _, rival := range LevelerSpecs() {
			if rival.Kind == spec.Kind {
				continue
			}
			other, _ := buildModule(t, rival, 3)
			before := other.ExportState()
			if err := p.Load(other); !errors.Is(err, ErrNoSavedState) {
				t.Errorf("%s loaded a %s snapshot: %v", rival.Name, spec.Name, err)
			}
			if !bytes.Equal(other.ExportState(), before) {
				t.Errorf("rejected load changed the %s receiver", rival.Name)
			}
		}
	})
}

func TestPersistRejectsBitrot(t *testing.T) {
	forEachEntrant(t, func(t *testing.T, spec LevelerSpec) {
		store := newMemStore(1)
		p, _ := NewPersister(store)
		if err := p.Save(driven(t, spec, 600)); err != nil {
			t.Fatal(err)
		}
		store.slots[0][len(store.slots[0])/2] ^= 0x40 // flip a payload bit
		restored, _ := buildModule(t, spec, 3)
		p2, _ := NewPersister(store)
		if err := p2.Load(restored); !errors.Is(err, ErrNoSavedState) {
			t.Fatalf("corrupted snapshot err = %v, want ErrNoSavedState", err)
		}
	})
}

func TestNewPersisterValidation(t *testing.T) {
	if _, err := NewPersister(nil); err == nil {
		t.Error("nil store must fail")
	}
	if _, err := NewPersister(newMemStore(0)); err == nil {
		t.Error("zero-slot store must fail")
	}
}

func TestPersistSaveError(t *testing.T) {
	forEachEntrant(t, func(t *testing.T, spec LevelerSpec) {
		store := newMemStore(2)
		store.failAll = true
		p, _ := NewPersister(store)
		if err := p.Save(driven(t, spec, 10)); err == nil {
			t.Error("Save must surface store errors")
		}
	})
}

// TestPersistFindexOutOfRangeRejected: a snapshot whose envelope is intact
// but whose record carries a scan position beyond the BET is refused by
// ImportState, so the older slot wins and the leveler never sees the stale
// index.
func TestPersistFindexOutOfRangeRejected(t *testing.T) {
	c := &fakeCleaner{}
	l, err := NewLeveler(Config{Blocks: 100, K: 1, Threshold: 50, Rand: NewSplitMix64(3)}, c)
	if err != nil {
		t.Fatal(err)
	}
	c.l = l
	l.OnErase(5)
	l.findex = 7
	store := newMemStore(2)
	p, _ := NewPersister(store)
	if err := p.Save(l); err != nil { // seq 1 → slot 1
		t.Fatal(err)
	}
	l.OnErase(6)
	bad := l.ExportState()
	binary.LittleEndian.PutUint32(bad[15:], uint32(l.bet.Size())) // findex follows the 7-byte header and ecnt
	store.slots[0] = encodeSnapshot(bad, 2)

	c2 := &fakeCleaner{}
	restored, _ := NewLeveler(Config{Blocks: 100, K: 1, Threshold: 50}, c2)
	c2.l = restored
	p2, _ := NewPersister(store)
	if err := p2.Load(restored); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if p2.Seq() != 1 || restored.Findex() != 7 || restored.Ecnt() != 1 {
		t.Errorf("restored seq %d findex %d ecnt %d, want the older snapshot's 1/7/1",
			p2.Seq(), restored.Findex(), restored.Ecnt())
	}
}
