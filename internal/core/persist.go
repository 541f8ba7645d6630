package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sort"
)

// Snapshot persistence (paper §3.2–3.3): the BET, ecnt, fcnt, and findex —
// here, whatever a strategy's ExportState record holds — are saved to flash
// at shutdown and reloaded at attach so the leveler does not lose erase
// history. Crash resistance uses the "dual buffer concept": writes alternate
// between two slots, so a crash mid-write destroys at most the newest
// snapshot and an older consistent one survives. The paper notes the values
// tolerate staleness — a slightly old snapshot only delays leveling, it
// never corrupts data.

// SnapshotStore is the persistence substrate, satisfied by
// mtd.BlockStore (two reserved flash blocks) and by any test double.
type SnapshotStore interface {
	// Slots returns the number of snapshot slots (2 for a dual buffer).
	Slots() int
	// WriteSnapshot replaces the payload in a slot.
	WriteSnapshot(slot int, data []byte) error
	// ReadSnapshot returns the payload in a slot; any error means the slot
	// holds no usable snapshot.
	ReadSnapshot(slot int) ([]byte, error)
}

// ErrNoSavedState reports that no slot held a decodable snapshot.
var ErrNoSavedState = errors.New("core: no saved leveler state")

// A snapshot is the leveler's state record in an envelope (little-endian):
//
//	0  magic u32
//	4  seq u64
//	12 len u32
//	16 state (len bytes: the module's ExportState record)
//	.. crc32 u32 over everything before it
//
// The envelope orders the slots and detects a torn or rotted write; which
// strategy and shape the record belongs to is the record's own header.
const (
	snapMagic  = 0x53574C32 // "SWL2"
	snapHeader = 16
)

// encodeSnapshot wraps a state record with a write sequence number.
func encodeSnapshot(state []byte, seq uint64) []byte {
	buf := make([]byte, snapHeader, snapHeader+len(state)+4)
	binary.LittleEndian.PutUint32(buf[0:], snapMagic)
	binary.LittleEndian.PutUint64(buf[4:], seq)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(state)))
	buf = append(buf, state...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeSnapshot unwraps an intact envelope.
func decodeSnapshot(buf []byte) (state []byte, seq uint64, ok bool) {
	if len(buf) < snapHeader+4 || binary.LittleEndian.Uint32(buf) != snapMagic ||
		uint64(binary.LittleEndian.Uint32(buf[12:])) != uint64(len(buf)-snapHeader-4) {
		return nil, 0, false
	}
	body := buf[:len(buf)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[len(body):]) {
		return nil, 0, false
	}
	return body[snapHeader:], binary.LittleEndian.Uint64(buf[4:]), true
}

// Persister saves and restores a leveler of any registered strategy through
// a SnapshotStore using the dual-buffer protocol.
type Persister struct {
	store SnapshotStore
	seq   uint64
}

// NewPersister wraps a store. The store should have at least two slots for
// crash resistance; one slot still works but loses the old copy during a
// write.
func NewPersister(store SnapshotStore) (*Persister, error) {
	if store == nil || store.Slots() < 1 {
		return nil, errors.New("core: persister needs a store with at least one slot")
	}
	return &Persister{store: store}, nil
}

// Seq returns the sequence number of the last snapshot written or adopted.
// It is 0 before any Save or successful Load.
func (p *Persister) Seq() uint64 { return p.seq }

// Save writes the leveler state to the next slot in rotation.
func (p *Persister) Save(l LevelerModule) error {
	p.seq++
	// Reduce modulo first: int(p.seq) alone truncates, and on 32-bit ints
	// a truncated sequence can go negative, producing a negative slot.
	slot := int(p.seq % uint64(p.store.Slots()))
	return p.store.WriteSnapshot(slot, encodeSnapshot(l.ExportState(), p.seq))
}

// Load restores the leveler from the newest usable snapshot across all
// slots: intact envelopes are tried newest first, and ImportState — which
// leaves the leveler unchanged when it rejects a record — decides whether
// one fits this strategy and shape. It returns ErrNoSavedState when no slot
// is usable — the leveler then simply starts a fresh resetting interval,
// which the paper notes is an acceptable loss. On success the persister
// resumes the sequence so that the next Save overwrites the older slot.
func (p *Persister) Load(l LevelerModule) error {
	type candidate struct {
		seq   uint64
		state []byte
	}
	var found []candidate
	for slot := 0; slot < p.store.Slots(); slot++ {
		buf, err := p.store.ReadSnapshot(slot)
		if err != nil {
			continue
		}
		if state, seq, ok := decodeSnapshot(buf); ok {
			found = append(found, candidate{seq, state})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].seq > found[j].seq })
	for _, c := range found {
		if l.ImportState(c.state) == nil {
			p.seq = c.seq
			return nil
		}
	}
	return ErrNoSavedState
}
