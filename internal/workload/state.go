package workload

import (
	"fmt"
	"math/rand"
	"time"

	"flashswl/internal/trace"
	"flashswl/internal/wire"
)

// Seekable-state implementations (trace.Seekable) for the workload sources.
// Every source here is deterministic given its model and seed, so position
// records stay tiny: segment generators store which segment they stand in
// and how far into it; math/rand-backed sources store how many draws they
// made and replay them on restore (each call site draws with constant
// arguments, so the replayed sequence is identical — and the generators can
// stay on math/rand, preserving the byte-identical traces golden outputs
// depend on).

// SaveState implements trace.Seekable. The segment stream's position is
// (seg, pos): the next segment to load and the offset within the current
// one; cur and base are re-derived on restore.
func (s *seqSource) SaveState() ([]byte, error) {
	w := wire.NewWriter()
	w.U32(uint32(s.nseg))
	w.U32(uint32(s.seg))
	w.U64(uint64(s.pos))
	return w.Bytes(), nil
}

// RestoreState implements trace.Seekable.
func (s *seqSource) RestoreState(data []byte) error {
	r := wire.NewReader(data)
	nseg := int(r.U32())
	seg := int(r.U32())
	pos := int(r.U64())
	if err := r.Close(); err != nil {
		return fmt.Errorf("workload: segment source state: %w", err)
	}
	if nseg != s.nseg {
		return fmt.Errorf("workload: segment source state for %d segments, have %d", nseg, s.nseg)
	}
	if seg < 0 || seg > nseg || pos < 0 {
		return fmt.Errorf("workload: corrupt segment source state")
	}
	var cur []trace.Event
	var base time.Duration
	if seg > 0 {
		cur = s.g.segment(seg - 1)
		base = time.Duration(seg-1) * s.g.m.SegmentLen
		if pos > len(cur) {
			return fmt.Errorf("workload: saved position %d beyond segment %d (%d events)",
				pos, seg-1, len(cur))
		}
	} else if pos != 0 {
		return fmt.Errorf("workload: saved position %d before the first segment", pos)
	}
	s.seg, s.pos, s.cur, s.base = seg, pos, cur, base
	return nil
}

// SaveState implements trace.Seekable for the infinite derived trace: the
// fill phase's position plus the resampler's.
func (s *infiniteSource) SaveState() ([]byte, error) {
	fillState, err := s.fill.SaveState()
	if err != nil {
		return nil, err
	}
	resState, err := s.resampler.SaveState()
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter()
	w.Bool(s.fillDone)
	w.Blob(fillState)
	w.Blob(resState)
	return w.Bytes(), nil
}

// RestoreState implements trace.Seekable.
func (s *infiniteSource) RestoreState(data []byte) error {
	r := wire.NewReader(data)
	fillDone := r.Bool()
	fillState := r.Blob()
	resState := r.Blob()
	if err := r.Close(); err != nil {
		return fmt.Errorf("workload: infinite source state: %w", err)
	}
	if err := s.fill.RestoreState(fillState); err != nil {
		return err
	}
	if err := s.resampler.RestoreState(resState); err != nil {
		return err
	}
	s.fillDone = fillDone
	return nil
}

// SaveState implements trace.Seekable: the stream position is simply how
// many events have been emitted; restore replays that many draws.
func (u *UniformSource) SaveState() ([]byte, error) {
	w := wire.NewWriter()
	w.I64(u.events)
	return w.Bytes(), nil
}

// RestoreState implements trace.Seekable. The receiver must have been built
// with the same shape and seed; replaying is O(events), which the uniform
// control workload's test-scale runs keep cheap.
func (u *UniformSource) RestoreState(data []byte) error {
	r := wire.NewReader(data)
	events := r.I64()
	if err := r.Close(); err != nil {
		return fmt.Errorf("workload: uniform source state: %w", err)
	}
	if events < 0 {
		return fmt.Errorf("workload: corrupt uniform source state")
	}
	u.rng = rand.New(rand.NewSource(u.seed))
	u.now = 0
	u.events = 0
	for i := int64(0); i < events; i++ {
		u.Next()
	}
	return nil
}
