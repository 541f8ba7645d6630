package experiments

import (
	"flashswl/internal/checkpoint"
	"flashswl/internal/sim"
	"flashswl/internal/trace"
)

// Branch-from-checkpoint sweeps: every cell of a (k, T) sweep, and every
// arena entrant, replays the same workload prefix, and until a cell's
// leveler first triggers it only *observes* erases — it changes nothing. When
// Scale.BranchWarmupEvents is set, a sweep therefore runs that prefix once
// per layer with no leveler attached, checkpoints the stack in memory
// together with a log of every erase, and forks each cell from the
// checkpoint: the cell's fresh leveler is fed the logged erases in event
// order, exactly as it would have seen them live, and the simulation resumes
// from there. A cell whose leveler would have triggered inside the warm-up
// (and so would have changed flash state the warm-up image doesn't have)
// silently falls back to a from-scratch run. Results are bit-identical to
// the unbranched sweep either way — the branch is purely a wall-clock
// optimization (see BenchmarkBranchSweep) — which TestBranchedSweepsMatch
// verifies against the figure and leaderboard CSVs.

// warmErase is one erase observed during warm-up: which block, during which
// trace event.
type warmErase struct {
	event int64
	block int32
}

// warmup is one layer's shared sweep prefix: the checkpointed stack, the
// erase log to replay through each cell's leveler, and the simulated span
// the prefix covered (cells bounded by MaxSimTime must cover more).
type warmup struct {
	state   *checkpoint.State
	erases  []warmErase
	events  int64
	simTime int64 // ns; the warm-up's last event time
}

// runWarmup executes the leveler-less shared prefix for one layer and
// captures its checkpoint and erase log. It returns nil whenever the prefix
// is unusable for branching — the scale has no warm-up configured, a block
// wore out, the layer failed, the trace ran dry early, or the state could
// not be captured — in which case every cell runs from scratch.
func (sc Scale) runWarmup(layer sim.LayerKind) *warmup {
	if sc.BranchWarmupEvents <= 0 {
		return nil
	}
	cfg := sc.config(layer, false, 0, 0)
	cfg.MaxEvents = sc.BranchWarmupEvents
	r, err := sim.NewRunner(cfg)
	if err != nil {
		return nil
	}
	w := &warmup{}
	r.Layer().SetOnErase(func(block int) {
		w.erases = append(w.erases, warmErase{event: r.Events(), block: int32(block)})
	})
	res, err := r.Run(sc.source())
	if err != nil || res.Err != nil || len(res.InvariantViolations) > 0 ||
		res.WornBlocks > 0 || res.Events != sc.BranchWarmupEvents {
		return nil
	}
	st, err := r.CheckpointState()
	if err != nil {
		return nil
	}
	w.state = st
	w.events = res.Events
	w.simTime = int64(res.SimTime)
	return w
}

// usable reports whether the warm-up prefix lies on cfg's from-scratch
// trajectory: a run bounded tighter than the warm-up would have stopped
// inside it, so branching such a cell would overshoot.
func (w *warmup) usable(cfg sim.Config) bool {
	if w == nil || w.state == nil {
		return false
	}
	if cfg.MaxEvents > 0 && w.events > cfg.MaxEvents {
		return false
	}
	if cfg.MaxSimTime > 0 && w.simTime > int64(cfg.MaxSimTime) {
		return false
	}
	return true
}

// replay feeds the warm-up's erase log through a cell's fresh leveler,
// checking the trigger condition at every event boundary exactly as the live
// loop does (unevenness only changes on erase, so event groups without
// erases need no check). It reports false when the leveler would have
// triggered inside the warm-up — the cell cannot branch.
func (w *warmup) replay(lv sim.Leveler) bool {
	if lv == nil {
		return true
	}
	for i := 0; i < len(w.erases); {
		j := i
		for j < len(w.erases) && w.erases[j].event == w.erases[i].event {
			lv.OnErase(int(w.erases[j].block))
			j++
		}
		if lv.NeedsLeveling() {
			return false
		}
		i = j
	}
	return true
}

// branchRun resumes one cell from the warm-up over src, a fresh stream of
// the sweep's trace. ok=false means the cell's leveler would have acted
// during the warm-up and the cell must run from scratch instead. The warm-up
// state is shared read-only across parallel cells; every mutable structure
// is rebuilt per cell by ResumeState.
func (w *warmup) branchRun(cfg sim.Config, src trace.Source) (res *sim.Result, ok bool, err error) {
	r, err := sim.ResumeState(w.state, cfg, src)
	if err != nil {
		return nil, false, err
	}
	if !w.replay(r.Leveler()) {
		return nil, false, nil
	}
	res, err = r.Run(src)
	return res, true, err
}

// run executes one cell, branching from its warm-up when possible and
// falling back to a from-scratch run when not.
func (c cell) run(source func() trace.Source) (*sim.Result, error) {
	if c.warm.usable(c.cfg) {
		res, ok, err := c.warm.branchRun(c.cfg, source())
		if err != nil {
			return nil, err
		}
		if ok {
			return res, nil
		}
	}
	return sim.Run(c.cfg, source())
}
