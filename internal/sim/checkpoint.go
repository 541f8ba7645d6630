package sim

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"flashswl/internal/checkpoint"
	"flashswl/internal/nand"
	"flashswl/internal/trace"
	"flashswl/internal/wire"
)

// Checkpoint/resume: a running simulation serializes its full stack —
// configuration digest, chip image, translation-layer state, leveler state,
// fault-injector state, trace position, and harness counters — into one
// internal/checkpoint file, and Resume rebuilds a Runner that continues the
// run bit-for-bit: the resumed run's Result is identical to an uninterrupted
// run's. Checkpoints are only taken between trace events, so no layer
// operation is ever in flight.
//
// What a checkpoint does NOT carry: the streaming observability state
// (series samples, episode spans, metrics) restarts at the resume point —
// those are diagnostics of a process, not simulation state — and the chip's
// read-disturb counters, which the harness never enables.

// digestVersion versions the configuration digest record. v2 added the
// multi-chip array shape (ArrayChips, ArrayStripe); the digest is only ever
// compared for equality, so the bump simply refuses to resume v1 checkpoints
// (their single-chip configs re-digest differently), which is the correct
// strictness for a format that guards bit-for-bit resume.
const digestVersion = 2

// countersVersion versions the harness counters record.
const countersVersion = 1

// arrayImageVersion versions the multi-chip image record that replaces the
// raw chip image in checkpoints of array devices.
const arrayImageVersion = 1

// digestBytes encodes the configuration facets that shape simulation state:
// a checkpoint may only be resumed under a config whose digest matches.
// Deliberately excluded: the leveler settings (SWL, Leveler, K, T, Period,
// SelectRandom) — branch-from-checkpoint sweeps resume one warmed-up
// image under many leveler configurations — the run bounds (MaxEvents, MaxSimTime,
// StopOnFirstWear), which callers may extend across resumes, and the
// observability and checkpointing settings, which shape diagnostics, not
// state.
func digestBytes(cfg Config) []byte {
	w := wire.NewWriter()
	w.U8(digestVersion)
	w.U32(uint32(cfg.Geometry.Blocks))
	w.U32(uint32(cfg.Geometry.PagesPerBlock))
	w.U32(uint32(cfg.Geometry.PageSize))
	w.U32(uint32(cfg.Geometry.SpareSize))
	w.U8(uint8(cfg.Cell))
	w.I32(int32(cfg.Endurance))
	w.U8(uint8(cfg.Layer))
	w.I64(cfg.LogicalSectors)
	w.Bool(cfg.NoSpare)
	w.Bool(cfg.StoreData)
	w.Bool(cfg.FTLDualFrontier)
	w.F64(cfg.GCFreeFraction)
	w.I32(int32(cfg.DFTLCache))
	w.I32(int32(cfg.ArrayChips))
	w.Bool(cfg.ArrayStripe)
	w.I64(cfg.Seed)
	w.Bool(cfg.Faults != nil)
	if cfg.Faults != nil {
		f := cfg.Faults
		w.I64(f.Seed)
		w.F64(f.ProgramFailRate)
		w.F64(f.EraseFailRate)
		w.I64(f.GrownBadEvery)
		w.I32(int32(f.MaxGrownBad))
		w.I64(f.BitFlipEvery)
		w.I64(f.PowerCutAfter)
	}
	return w.Bytes()
}

// ConfigDigest returns the configuration digest a checkpoint of cfg would
// carry — the equality token guarding resume compatibility. The fleet
// harness embeds it in its own digest so a fleet checkpoint binds to the
// exact per-device configuration.
func ConfigDigest(cfg Config) []byte { return digestBytes(cfg) }

// countersBytes encodes the harness-level progress counters.
func (r *Runner) countersBytes() []byte {
	w := wire.NewWriter()
	w.U8(countersVersion)
	w.I64(r.events)
	w.I64(r.pageWrites)
	w.I64(r.pageReads)
	w.I64(int64(r.now))
	w.I64(int64(r.firstWear))
	w.I32(int32(r.worn))
	w.I64(r.erasesAtReset)
	cs := r.dev.Stats()
	w.I64(cs.Reads)
	w.I64(cs.Programs)
	w.I64(cs.Erases)
	w.I64(int64(cs.Elapsed))
	return w.Bytes()
}

// restoreCounters decodes a counters record into the runner and chip.
func (r *Runner) restoreCounters(data []byte) error {
	rd := wire.NewReader(data)
	if v := rd.U8(); v != countersVersion && rd.Err() == nil {
		return fmt.Errorf("sim: counters version %d unsupported", v)
	}
	events, pageWrites, pageReads := rd.I64(), rd.I64(), rd.I64()
	now, firstWear := time.Duration(rd.I64()), time.Duration(rd.I64())
	worn := int(rd.I32())
	erasesAtReset := rd.I64()
	var cs nand.Stats
	cs.Reads, cs.Programs, cs.Erases = rd.I64(), rd.I64(), rd.I64()
	cs.Elapsed = time.Duration(rd.I64())
	if err := rd.Close(); err != nil {
		return fmt.Errorf("sim: counters: %w", err)
	}
	if events < 0 || pageWrites < 0 || pageReads < 0 || worn < 0 {
		return fmt.Errorf("sim: corrupt counters record")
	}
	r.events, r.pageWrites, r.pageReads = events, pageWrites, pageReads
	r.now, r.firstWear, r.worn = now, firstWear, worn
	r.erasesAtReset = erasesAtReset
	if r.arr != nil {
		// Per-chip stats were restored from the array image record; the
		// counters record carries the aggregate, which must agree.
		if got := r.dev.Stats(); got != cs {
			return fmt.Errorf("sim: array aggregate stats %+v disagree with counters record %+v", got, cs)
		}
		return nil
	}
	r.chip.RestoreStats(cs)
	return nil
}

// arrayImageBytes serializes every member chip's image and operation stats
// as one record — the multi-chip replacement for the raw chip image.
func (r *Runner) arrayImageBytes() ([]byte, error) {
	w := wire.NewWriter()
	w.U8(arrayImageVersion)
	w.U32(uint32(len(r.chips)))
	for _, c := range r.chips {
		var img bytes.Buffer
		if err := c.WriteImage(&img); err != nil {
			return nil, fmt.Errorf("sim: chip image: %w", err)
		}
		w.Blob(img.Bytes())
		cs := c.Stats()
		w.I64(cs.Reads)
		w.I64(cs.Programs)
		w.I64(cs.Erases)
		w.I64(int64(cs.Elapsed))
	}
	return w.Bytes(), nil
}

// restoreArrayImage decodes an arrayImageBytes record into the member chips.
func (r *Runner) restoreArrayImage(data []byte) error {
	rd := wire.NewReader(data)
	if v := rd.U8(); v != arrayImageVersion && rd.Err() == nil {
		return fmt.Errorf("sim: array image version %d unsupported", v)
	}
	n := int(rd.U32())
	if rd.Err() == nil && n != len(r.chips) {
		return fmt.Errorf("sim: array image has %d chips, config builds %d", n, len(r.chips))
	}
	for i := 0; i < n && rd.Err() == nil; i++ {
		img := rd.Blob()
		var cs nand.Stats
		cs.Reads, cs.Programs, cs.Erases = rd.I64(), rd.I64(), rd.I64()
		cs.Elapsed = time.Duration(rd.I64())
		if rd.Err() != nil {
			break
		}
		if err := r.chips[i].RestoreImage(bytes.NewReader(img)); err != nil {
			return fmt.Errorf("sim: chip %d image: %w", i, err)
		}
		r.chips[i].RestoreStats(cs)
	}
	if err := rd.Close(); err != nil {
		return fmt.Errorf("sim: array image: %w", err)
	}
	return nil
}

// levelerState serializes the attached leveler, or nil without one. Every
// leveler is a core.LevelerModule, so its kind-tagged state codec is part of
// the contract — no per-implementation cases.
func (r *Runner) levelerState() ([]byte, error) {
	if r.leveler == nil {
		return nil, nil
	}
	return r.leveler.ExportState(), nil
}

// CheckpointState captures the runner's full state as a checkpoint. The
// runner must be between trace events (Checkpoint and the in-run triggers
// guarantee this) and its source must implement trace.Seekable.
func (r *Runner) CheckpointState() (*checkpoint.State, error) {
	seek, ok := r.src.(trace.Seekable)
	if !ok {
		return nil, fmt.Errorf("sim: source %T is not seekable; cannot checkpoint", r.src)
	}
	traceState, err := seek.SaveState()
	if err != nil {
		return nil, fmt.Errorf("sim: trace state: %w", err)
	}
	layerState, err := r.layer.SaveState()
	if err != nil {
		return nil, err
	}
	levelerState, err := r.levelerState()
	if err != nil {
		return nil, err
	}
	var chipImage []byte
	if r.arr != nil {
		chipImage, err = r.arrayImageBytes()
		if err != nil {
			return nil, err
		}
	} else {
		var buf bytes.Buffer
		if err := r.chip.WriteImage(&buf); err != nil {
			return nil, fmt.Errorf("sim: chip image: %w", err)
		}
		chipImage = buf.Bytes()
	}
	st := &checkpoint.State{
		Digest:   digestBytes(r.cfg),
		Chip:     chipImage,
		Layer:    layerState,
		Leveler:  levelerState,
		Trace:    traceState,
		Counters: r.countersBytes(),
	}
	if r.inj != nil {
		st.Injector = r.inj.SaveState()
	}
	return st, nil
}

// Checkpoint writes the runner's current state to w in the
// internal/checkpoint format.
func (r *Runner) Checkpoint(w io.Writer) error {
	st, err := r.CheckpointState()
	if err != nil {
		return err
	}
	return checkpoint.Write(w, st)
}

// writeCheckpointFile writes a checkpoint atomically: to a temporary file
// first, renamed over the target, so a crash mid-write never leaves a
// half-written (and CRC-invalid) checkpoint as the only copy.
func (r *Runner) writeCheckpointFile(path string) error {
	st, err := r.CheckpointState()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := checkpoint.Write(f, st); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// checkCheckpointConfig validates the checkpointing configuration against
// the source before the run starts, so misconfiguration fails fast instead
// of at the first due checkpoint.
func (r *Runner) checkCheckpointConfig(src trace.Source) error {
	if r.cfg.CheckpointEvery == 0 && r.cfg.CheckpointRequested == nil && r.cfg.CheckpointPath == "" {
		return nil
	}
	if r.cfg.CheckpointPath == "" {
		return fmt.Errorf("sim: checkpointing configured without CheckpointPath")
	}
	if r.cache != nil {
		return fmt.Errorf("sim: checkpointing is incompatible with CachePages (dirty cache lines are not part of the checkpoint image): %w", ErrUnsupported)
	}
	if r.cfg.CheckpointEvery < 0 {
		return fmt.Errorf("sim: negative CheckpointEvery %d", r.cfg.CheckpointEvery)
	}
	if _, ok := src.(trace.Seekable); !ok {
		return fmt.Errorf("sim: checkpointing needs a seekable source, %T is not", src)
	}
	return nil
}

// maybeCheckpoint writes a checkpoint when one is due: every
// CheckpointEvery events, or when CheckpointRequested fires. The request
// poll always runs (it test-and-clears the requester's flag) even when a
// periodic checkpoint is due at the same event.
func (r *Runner) maybeCheckpoint() error {
	if r.cfg.CheckpointPath == "" {
		return nil
	}
	requested := r.cfg.CheckpointRequested != nil && r.cfg.CheckpointRequested()
	due := r.cfg.CheckpointEvery > 0 && r.events%r.cfg.CheckpointEvery == 0
	if !requested && !due {
		return nil
	}
	return r.writeCheckpointFile(r.cfg.CheckpointPath)
}

// Events returns how many trace events the runner has consumed so far.
func (r *Runner) Events() int64 { return r.events }

// ResumeState rebuilds a runner from a decoded checkpoint. The config must
// digest-match the one the checkpoint was taken under (leveler settings and
// run bounds excepted; see digestBytes) and src must be an identically
// constructed source, whose position is restored from the checkpoint.
//
// A checkpoint written without a leveler may be resumed with cfg.SWL set:
// the run continues with a fresh leveler, which is exactly the
// branch-from-checkpoint sweep — one warm-up image forked under many leveler
// configurations. The reverse (a checkpoint with leveler state resumed into
// a config without one) is rejected, as is a leveler-kind mismatch (every
// core.LevelerModule's ImportState checks the kind byte of its records).
func ResumeState(st *checkpoint.State, cfg Config, src trace.Source) (*Runner, error) {
	if !bytes.Equal(st.Digest, digestBytes(cfg)) {
		return nil, fmt.Errorf("sim: checkpoint was taken under a different configuration")
	}
	if cfg.CachePages > 0 {
		return nil, fmt.Errorf("sim: resume is incompatible with CachePages (dirty cache lines are not part of the checkpoint image): %w", ErrUnsupported)
	}
	seek, ok := src.(trace.Seekable)
	if !ok {
		return nil, fmt.Errorf("sim: resume needs a seekable source, %T is not", src)
	}
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	if r.arr != nil {
		if err := r.restoreArrayImage(st.Chip); err != nil {
			return nil, err
		}
	} else if err := r.chip.RestoreImage(bytes.NewReader(st.Chip)); err != nil {
		return nil, fmt.Errorf("sim: chip image: %w", err)
	}
	if err := r.layer.RestoreState(st.Layer); err != nil {
		return nil, err
	}
	switch {
	case r.leveler == nil && st.Leveler != nil:
		return nil, fmt.Errorf("sim: checkpoint carries leveler state but the config has no leveler")
	case r.leveler != nil && st.Leveler != nil:
		if err := r.leveler.ImportState(st.Leveler); err != nil {
			return nil, err
		}
	}
	switch {
	case r.inj != nil && st.Injector != nil:
		if err := r.inj.RestoreState(st.Injector); err != nil {
			return nil, err
		}
	case r.inj != nil:
		return nil, fmt.Errorf("sim: config has a fault schedule but the checkpoint carries no injector state")
	case st.Injector != nil:
		return nil, fmt.Errorf("sim: checkpoint carries injector state but the config has no fault schedule")
	}
	if err := seek.RestoreState(st.Trace); err != nil {
		return nil, err
	}
	if err := r.restoreCounters(st.Counters); err != nil {
		return nil, err
	}
	return r, nil
}

// ResumeReader decodes a checkpoint stream and rebuilds a runner from it.
func ResumeReader(rd io.Reader, cfg Config, src trace.Source) (*Runner, error) {
	st, err := checkpoint.Read(rd)
	if err != nil {
		return nil, err
	}
	return ResumeState(st, cfg, src)
}

// Resume loads a checkpoint file and rebuilds a runner positioned exactly
// where the checkpoint was taken; calling Run(src) on it continues the
// simulation bit-for-bit. The source must be built identically to the
// original run's (same model, seed, and shape).
func Resume(path string, cfg Config, src trace.Source) (*Runner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ResumeReader(f, cfg, src)
}
