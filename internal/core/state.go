package core

import (
	"fmt"

	"flashswl/internal/wire"
)

// Leveler state export/import: the complete dynamic state of a leveler —
// BET bits, erase counters, scan position, activity stats, and the random
// generator position — as one self-describing little-endian record, so
// checkpoint/resume can continue a run bit-for-bit. Every record opens with
// the same header — version, leveler kind, and shape (blocks, k) — which
// importHeader validates against the receiving instance, which must have
// been constructed with the same configuration. Static configuration
// (threshold, policy, exclusions) is deliberately not serialized: it belongs
// to the Config, and presets are re-derived from it.

// levelerStateVersion versions every leveler state record; the byte after
// it is the implementation's LevelerKind (see module.go).
const levelerStateVersion = 1

// exportHeader writes the header every state record opens with: version,
// kind, and the shape the record was taken under.
func (s *shape) exportHeader(w *wire.Writer) {
	w.U8(levelerStateVersion)
	w.U8(uint8(s.kind))
	w.U32(uint32(s.blocks))
	w.U8(uint8(s.k))
}

// importHeader consumes the header and validates all four fields against the
// receiving instance.
func (s *shape) importHeader(r *wire.Reader) error {
	version, kind := r.U8(), LevelerKind(r.U8())
	blocks, k := int(r.U32()), int(r.U8())
	switch {
	case r.Err() != nil:
		return fmt.Errorf("core: %s leveler state: %w", s.kind, r.Err())
	case version != levelerStateVersion:
		return fmt.Errorf("core: leveler state version %d unsupported", version)
	case kind != s.kind:
		return fmt.Errorf("core: state is not a %s leveler record (kind %d)", s.kind, uint8(kind))
	case blocks != s.blocks || k != s.k:
		return fmt.Errorf("core: %s leveler state shape %d blocks/k=%d, have %d/k=%d",
			s.kind, blocks, k, s.blocks, s.k)
	}
	return nil
}

// ExportState serializes the leveler's full dynamic state.
func (l *Leveler) ExportState() []byte {
	w := wire.NewWriter()
	l.exportHeader(w)
	w.I64(l.ecnt)
	w.U32(uint32(l.findex))
	w.U64(l.rand.State())
	exportStats(w, l.stats)
	w.U32(uint32(l.bet.Fcnt()))
	w.U64s(l.bet.flags)
	return w.Bytes()
}

// ImportState restores state exported from an identically configured
// leveler. On any mismatch or corruption the leveler is left unchanged.
func (l *Leveler) ImportState(data []byte) error {
	r := wire.NewReader(data)
	if err := l.importHeader(r); err != nil {
		return err
	}
	ecnt := r.I64()
	findex := int(r.U32())
	randState := r.U64()
	stats := importStats(r)
	fcnt := int(r.U32())
	flags := r.U64s()
	if err := r.Close(); err != nil {
		return fmt.Errorf("core: leveler state: %w", err)
	}
	if len(flags) != len(l.bet.flags) {
		return fmt.Errorf("core: leveler state has %d BET words, want %d", len(flags), len(l.bet.flags))
	}
	if findex < 0 || findex >= l.bet.Size() {
		return fmt.Errorf("core: leveler state findex %d out of range", findex)
	}
	if pop := popcount(flags); pop != fcnt {
		return fmt.Errorf("core: leveler state fcnt %d, popcount says %d", fcnt, pop)
	}
	copy(l.bet.flags, flags)
	l.bet.fcnt = fcnt
	l.ecnt = ecnt
	l.findex = findex
	l.rand.SetState(randState)
	l.stats = stats
	l.leveling = false
	return nil
}

// ExportState serializes the periodic baseline's full dynamic state.
func (p *PeriodicLeveler) ExportState() []byte {
	w := wire.NewWriter()
	p.exportHeader(w)
	w.I64(p.pending)
	w.U64(p.rand.State())
	exportStats(w, p.stats)
	return w.Bytes()
}

// ImportState restores state exported from an identically configured
// periodic leveler.
func (p *PeriodicLeveler) ImportState(data []byte) error {
	r := wire.NewReader(data)
	if err := p.importHeader(r); err != nil {
		return err
	}
	pending := r.I64()
	randState := r.U64()
	stats := importStats(r)
	if err := r.Close(); err != nil {
		return fmt.Errorf("core: periodic leveler state: %w", err)
	}
	p.pending = pending
	p.rand.SetState(randState)
	p.stats = stats
	p.leveling = false
	return nil
}

// ExportState serializes the gap leveler's full dynamic state.
func (g *GapLeveler) ExportState() []byte {
	w := wire.NewWriter()
	g.exportHeader(w)
	exportStats(w, g.stats)
	w.I32s(g.wear.erases)
	w.U64s(g.skip)
	return w.Bytes()
}

// ImportState restores state exported from an identically configured gap
// leveler; the min/max trackers are recomputed rather than carried. On any
// mismatch or corruption the leveler is left unchanged.
func (g *GapLeveler) ImportState(data []byte) error {
	r := wire.NewReader(data)
	if err := g.importHeader(r); err != nil {
		return err
	}
	stats := importStats(r)
	erases := r.I32s()
	skip := r.U64s()
	if err := r.Close(); err != nil {
		return fmt.Errorf("core: gap leveler state: %w", err)
	}
	if len(skip) != len(g.skip) {
		return fmt.Errorf("core: gap leveler state has %d skip words, want %d", len(skip), len(g.skip))
	}
	if err := g.wear.check(erases); err != nil {
		return fmt.Errorf("core: gap leveler state: %w", err)
	}
	g.wear.load(erases)
	copy(g.skip, skip)
	g.stats = stats
	g.leveling = false
	return nil
}

// ExportState serializes the dual-pool leveler's full dynamic state.
func (d *DualPoolLeveler) ExportState() []byte {
	w := wire.NewWriter()
	d.exportHeader(w)
	exportStats(w, d.stats)
	w.I32s(d.wear.erases)
	w.U64s(d.hot)
	return w.Bytes()
}

// ImportState restores state exported from an identically configured
// dual-pool leveler; pool counts and the min/max trackers are recomputed.
// On any mismatch or corruption the leveler is left unchanged.
func (d *DualPoolLeveler) ImportState(data []byte) error {
	r := wire.NewReader(data)
	if err := d.importHeader(r); err != nil {
		return err
	}
	stats := importStats(r)
	erases := r.I32s()
	hot := r.U64s()
	if err := r.Close(); err != nil {
		return fmt.Errorf("core: dual-pool leveler state: %w", err)
	}
	if len(hot) != len(d.hot) {
		return fmt.Errorf("core: dual-pool leveler state has %d pool words, want %d", len(hot), len(d.hot))
	}
	if err := d.wear.check(erases); err != nil {
		return fmt.Errorf("core: dual-pool leveler state: %w", err)
	}
	d.wear.load(erases)
	for i := range d.hot {
		d.hot[i] = hot[i] &^ d.wear.barred[i] // excluded blocks belong to neither pool
	}
	d.hotCount = 0
	for b := range d.wear.erases {
		if d.hot.has(b) {
			d.hotCount++
		}
	}
	d.coldCount = d.wear.eligible - d.hotCount
	d.recomputeColdMin()
	d.stats = stats
	d.leveling = false
	return nil
}

// ExportState serializes the SAWL wrapper's full dynamic state: its own
// adaptation counters, the currently adapted threshold (the inner leveler's
// codec deliberately omits static thresholds, but SAWL's is dynamic state),
// and the inner SW Leveler record as a nested blob.
func (s *SAWLLeveler) ExportState() []byte {
	w := wire.NewWriter()
	s.exportHeader(w)
	w.F64(s.inner.cfg.Threshold)
	w.I64(s.sinceAdapt)
	w.I32s(s.wear.erases)
	w.Blob(s.inner.ExportState())
	return w.Bytes()
}

// ImportState restores state exported from an identically configured SAWL
// leveler, including the nested inner SW Leveler record and the adapted
// threshold. The inner leveler is only modified once the whole record
// validates.
func (s *SAWLLeveler) ImportState(data []byte) error {
	r := wire.NewReader(data)
	if err := s.importHeader(r); err != nil {
		return err
	}
	curT := r.F64()
	sinceAdapt := r.I64()
	erases := r.I32s()
	innerState := r.Blob()
	if err := r.Close(); err != nil {
		return fmt.Errorf("core: SAWL leveler state: %w", err)
	}
	if err := s.wear.check(erases); err != nil {
		return fmt.Errorf("core: SAWL leveler state: %w", err)
	}
	if curT < s.minT || curT > s.maxT {
		return fmt.Errorf("core: SAWL leveler state threshold %g outside clamp [%g, %g]",
			curT, s.minT, s.maxT)
	}
	if sinceAdapt < 0 || sinceAdapt >= int64(s.blocks) {
		return fmt.Errorf("core: SAWL leveler state adapt phase %d outside [0, %d)",
			sinceAdapt, s.blocks)
	}
	if err := s.inner.ImportState(innerState); err != nil {
		return err
	}
	s.inner.cfg.Threshold = curT
	s.sinceAdapt = sinceAdapt
	s.wear.load(erases)
	return nil
}

func exportStats(w *wire.Writer, s Stats) {
	w.I64(s.Erases)
	w.I64(s.Triggered)
	w.I64(s.SetsRecycled)
	w.I64(s.SetsSkipped)
	w.I64(s.Resets)
}

func importStats(r *wire.Reader) Stats {
	return Stats{
		Erases:       r.I64(),
		Triggered:    r.I64(),
		SetsRecycled: r.I64(),
		SetsSkipped:  r.I64(),
		Resets:       r.I64(),
	}
}
