package sim

import (
	"fmt"
	"time"

	"flashswl/internal/core"
	"flashswl/internal/nand"
	"flashswl/internal/obs"
	"flashswl/internal/stats"
)

// This file wires the observability layer (internal/obs) into the harness:
// the sink fan-out the stack emits into, the chip-level metrics hook, the
// invariant checks cross-referencing leveler, layer, and chip state, and the
// periodic wear-trajectory sampler.

// betIntrospector is satisfied by levelers built around the paper's BET
// (core.Leveler and the SAWL wrapper forwarding to one). The BET-specific
// invariant checks and wear-sample fields attach through it, so they follow
// whichever registered strategy the run uses without the harness knowing
// concrete types; strategies without a BET simply don't get them.
type betIntrospector interface {
	BET() *core.BET
	Ecnt() int64
	Unevenness() float64
}

// buildSinks assembles the runner's event fan-out from the config: the
// episode builder first (so spans see every event of the same fan-out),
// then the metrics sink (when Config.Metrics), the invariant checker with
// its erase-baseline tracker (when Config.CheckInvariants), and the
// caller's sink last. It leaves r.sink nil when observability is fully
// disabled, so every emission site downstream stays a single nil check.
func (r *Runner) buildSinks() {
	var sinks []obs.EventSink
	if r.cfg.Metrics {
		r.reg = obs.NewRegistry()
		sinks = append(sinks, obs.NewMetricsSink(r.reg))
	}
	if r.cfg.CheckInvariants {
		r.checker = obs.NewInvariantChecker()
		// The baseline tracker must observe EvBETReset before any later
		// checkpoint compares ecnt against the chip: leveler ecnt counts
		// erases since the last BET reset, so the chip total at that moment
		// is the subtrahend.
		sinks = append(sinks, obs.SinkFunc(func(e obs.Event) {
			if e.Kind == obs.EvBETReset {
				r.erasesAtReset = r.dev.Stats().Erases
			}
		}), r.checker)
	}
	if r.cfg.Sink != nil {
		sinks = append(sinks, r.cfg.Sink)
	}
	if len(sinks) > 0 || r.cfg.OnEpisode != nil || r.cfg.RecordEpisodes {
		r.episodes = obs.NewEpisodeBuilder(func() time.Duration { return r.now }, r.onEpisode)
		sinks = append([]obs.EventSink{r.episodes}, sinks...)
	}
	r.sink = obs.Combine(sinks...)
}

// onEpisode fans one completed leveler episode span out to every consumer:
// the run counters, the recorded slice (Config.RecordEpisodes), the
// caller's hook, and a streaming sink that understands episodes (the JSONL
// writer).
func (r *Runner) onEpisode(ep obs.Episode) {
	r.nepisodes++
	if r.cfg.RecordEpisodes {
		r.recorded = append(r.recorded, ep)
	}
	if r.cfg.OnEpisode != nil {
		r.cfg.OnEpisode(ep)
	}
	if w, ok := r.cfg.Sink.(interface{ Episode(obs.Episode) }); ok {
		w.Episode(ep)
	}
}

// EpisodeCount returns how many leveler episode spans have completed so far
// (0 when episode tracking is off).
func (r *Runner) EpisodeCount() int64 { return r.nepisodes }

// chipObserveHook returns the nand.Config.ObserveHook feeding the chip-level
// operation counters, or nil when metrics are off.
func (r *Runner) chipObserveHook() func(op nand.Op, block, page int) {
	if r.reg == nil {
		return nil
	}
	reads := r.reg.Counter(obs.MetricChipReads)
	programs := r.reg.Counter(obs.MetricChipPrograms)
	erases := r.reg.Counter(obs.MetricChipErases)
	return func(op nand.Op, block, page int) {
		switch op {
		case nand.OpRead:
			reads.Inc()
		case nand.OpProgram:
			programs.Inc()
		case nand.OpErase:
			erases.Inc()
		}
	}
}

// registerChecks installs the invariant checks once the full stack exists.
// Each runs at every leveler trigger (and once more at the end of the run):
//
//   - bet-fcnt-popcount: the BET's incremental flag count equals a popcount
//     of its flag words;
//   - ecnt-chip-erases: the leveler's per-interval erase count equals the
//     chip's successful erases since the last BET reset (every erase must
//     flow through OnErase, and nothing else may);
//   - layer-consistency: the translation layer's mapping, reverse mapping,
//     per-block accounting, and free pool agree with each other and with
//     which pages the chip reports programmed.
func (r *Runner) registerChecks() {
	if r.checker == nil {
		return
	}
	if lv, ok := r.leveler.(betIntrospector); ok {
		r.checker.Add("bet-fcnt-popcount", func() error {
			if got, want := lv.BET().Fcnt(), lv.BET().Recount(); got != want {
				return fmt.Errorf("fcnt %d, flag popcount %d", got, want)
			}
			return nil
		})
		r.checker.Add("ecnt-chip-erases", func() error {
			want := r.dev.Stats().Erases - r.erasesAtReset
			if got := lv.Ecnt(); got != want {
				return fmt.Errorf("ecnt %d, chip erases since BET reset %d", got, want)
			}
			return nil
		})
	}
	r.checker.Add("layer-consistency", r.layer.CheckConsistency)
}

// sample appends one wear-trajectory point to the series: the erase-count
// distribution's summary statistics plus pool and leveler state at this
// moment of the run.
func (r *Runner) sample() {
	r.ecBuf = r.dev.EraseCounts(r.ecBuf[:0])
	st := stats.Summarize(r.ecBuf)
	cs := r.dev.Stats()
	s := obs.WearSample{
		Events:      r.events,
		SimTime:     r.now,
		MeanErase:   st.Mean(),
		StdDevErase: st.StdDev(),
		MinErase:    int(st.Min()),
		MaxErase:    int(st.Max()),
		Erases:      cs.Erases,
		WornBlocks:  r.worn,
		FreeBlocks:  r.layer.FreeBlocks(),
	}
	if lv, ok := r.leveler.(betIntrospector); ok {
		s.Ecnt = lv.Ecnt()
		s.Fcnt = lv.BET().Fcnt()
		s.Unevenness = lv.Unevenness()
	}
	r.series.Add(s)
	if r.cfg.OnSample != nil {
		r.cfg.OnSample(s)
	}
	if w, ok := r.cfg.Sink.(interface{ Sample(obs.WearSample) }); ok {
		w.Sample(s) // stream samples interleaved with events (e.g. JSONL)
	}
}
