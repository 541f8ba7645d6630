package sim

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flashswl/internal/checkpoint"
	"flashswl/internal/faultinject"
	"flashswl/internal/trace"
	"flashswl/internal/workload"
)

// The differential tests: a run interrupted by a checkpoint and resumed
// must produce exactly the Result an uninterrupted run produces — same
// counters, same erase-count distribution, same summaries — for every
// translation layer, with and without a fault schedule, and across a
// pending power cut.

// requireSameResult compares the fields checkpoint/resume promises to
// preserve: everything in Result except the streaming observability
// artifacts (Series, Episodes, Metrics), which restart at resume.
func requireSameResult(t *testing.T, full, resumed *Result, cfg Config) {
	t.Helper()
	if full.Events != resumed.Events || full.PageWrites != resumed.PageWrites || full.PageReads != resumed.PageReads {
		t.Errorf("work counters differ: full %d/%d/%d, resumed %d/%d/%d",
			full.Events, full.PageWrites, full.PageReads,
			resumed.Events, resumed.PageWrites, resumed.PageReads)
	}
	if full.SimTime != resumed.SimTime || full.FirstWear != resumed.FirstWear {
		t.Errorf("clocks differ: full %v/%v, resumed %v/%v",
			full.SimTime, full.FirstWear, resumed.SimTime, resumed.FirstWear)
	}
	if full.Erases != resumed.Erases || full.LiveCopies != resumed.LiveCopies ||
		full.ForcedErases != resumed.ForcedErases || full.ForcedCopies != resumed.ForcedCopies ||
		full.GCRuns != resumed.GCRuns {
		t.Errorf("cleaner counters differ: full erases=%d copies=%d forced=%d/%d gc=%d, resumed erases=%d copies=%d forced=%d/%d gc=%d",
			full.Erases, full.LiveCopies, full.ForcedErases, full.ForcedCopies, full.GCRuns,
			resumed.Erases, resumed.LiveCopies, resumed.ForcedErases, resumed.ForcedCopies, resumed.GCRuns)
	}
	if !reflect.DeepEqual(full.EraseCounts, resumed.EraseCounts) {
		t.Errorf("erase-count distributions differ")
	}
	if full.WornBlocks != resumed.WornBlocks || full.RetiredBlocks != resumed.RetiredBlocks {
		t.Errorf("wear differs: full %d/%d, resumed %d/%d",
			full.WornBlocks, full.RetiredBlocks, resumed.WornBlocks, resumed.RetiredBlocks)
	}
	if full.ProgramRetries != resumed.ProgramRetries || full.EraseRetries != resumed.EraseRetries {
		t.Errorf("retry counters differ: full %d/%d, resumed %d/%d",
			full.ProgramRetries, full.EraseRetries, resumed.ProgramRetries, resumed.EraseRetries)
	}
	if full.Faults != resumed.Faults {
		t.Errorf("fault stats differ: full %+v, resumed %+v", full.Faults, resumed.Faults)
	}
	if full.Leveler != resumed.Leveler {
		t.Errorf("leveler stats differ: full %+v, resumed %+v", full.Leveler, resumed.Leveler)
	}
	if (full.Err == nil) != (resumed.Err == nil) ||
		(full.Err != nil && resumed.Err != nil && full.Err.Error() != resumed.Err.Error()) {
		t.Errorf("run errors differ: full %v, resumed %v", full.Err, resumed.Err)
	}
	// The BENCH summary record — what swlstat diffs — must match too.
	fs := Summarize("run", cfg, full)
	rs := Summarize("run", cfg, resumed)
	fs.Episodes, rs.Episodes = 0, 0 // episode spans are streaming diagnostics
	if !reflect.DeepEqual(fs, rs) { // struct holds a map since schema v2
		t.Errorf("bench summaries differ:\nfull    %+v\nresumed %+v", fs, rs)
	}
}

// resumeFrom runs cfg bounded to breakAt events, writing a checkpoint at the
// clean end, then resumes that checkpoint with the original bounds and
// finishes the run.
func resumeFrom(t *testing.T, cfg Config, breakAt int64, mkSrc func() trace.Source) *Result {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	legA := cfg
	legA.MaxEvents = breakAt
	legA.StopOnFirstWear = false
	legA.CheckpointPath = path
	resA, err := Run(legA, mkSrc())
	if err != nil {
		t.Fatalf("interrupted leg: %v", err)
	}
	if resA.Err != nil {
		t.Fatalf("interrupted leg ended with layer error: %v", resA.Err)
	}
	if resA.Events != breakAt {
		t.Fatalf("interrupted leg consumed %d events, want %d", resA.Events, breakAt)
	}
	src := mkSrc()
	r, err := Resume(path, cfg, src)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if r.Events() != breakAt {
		t.Fatalf("resumed runner stands at %d events, want %d", r.Events(), breakAt)
	}
	res, err := r.Run(src)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return res
}

// TestResumeMatchesFullRun is the core differential test across all three
// translation layers with the SW Leveler attached.
func TestResumeMatchesFullRun(t *testing.T) {
	for _, layer := range []LayerKind{FTL, NFTL, DFTL} {
		t.Run(layer.String(), func(t *testing.T) {
			cfg := worstCfg(layer, true, 10)
			cfg.MaxEvents = 6000
			mkSrc := func() trace.Source { return worstSource() }
			full, err := Run(cfg, mkSrc())
			if err != nil {
				t.Fatalf("full run: %v", err)
			}
			resumed := resumeFrom(t, cfg, 2500, mkSrc)
			requireSameResult(t, full, resumed, cfg)
			if full.Erases == 0 {
				t.Fatal("test workload produced no erases; differential test is vacuous")
			}
		})
	}
}

// TestResumeMatchesFullRunWorkloadSource repeats the differential test with
// the synthetic workload generator (whose saved state is its PRNG position)
// and the periodic baseline leveler.
func TestResumeMatchesFullRunWorkloadSource(t *testing.T) {
	cfg := worstCfg(FTL, true, 0)
	cfg.Leveler = "periodic"
	cfg.Period = 50
	cfg.MaxEvents = 5000
	model := workload.PaperScaled(cfg.LogicalSectors)
	mkSrc := func() trace.Source { return model.Infinite(cfg.Seed) }
	full, err := Run(cfg, mkSrc())
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	resumed := resumeFrom(t, cfg, 1700, mkSrc)
	requireSameResult(t, full, resumed, cfg)
}

// TestResumeUnderFaultSchedule checks that a checkpoint taken mid-schedule
// resumes with the remaining faults intact: transient faults, the grown-bad
// campaign, and their statistics all line up with the uninterrupted run.
func TestResumeUnderFaultSchedule(t *testing.T) {
	cfg := worstCfg(FTL, true, 10)
	cfg.MaxEvents = 6000
	cfg.Faults = &faultinject.Config{
		Seed:            11,
		ProgramFailRate: 0.002,
		EraseFailRate:   0.002,
		GrownBadEvery:   400,
		MaxGrownBad:     3,
	}
	mkSrc := func() trace.Source { return worstSource() }
	full, err := Run(cfg, mkSrc())
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	if full.Faults.ProgramFaults+full.Faults.EraseFaults == 0 {
		t.Fatal("schedule injected nothing; differential test is vacuous")
	}
	resumed := resumeFrom(t, cfg, 2500, mkSrc)
	requireSameResult(t, full, resumed, cfg)
}

// TestResumeAcrossPendingPowerCut checks that a checkpoint taken before a
// scheduled power cut resumes with the cut still armed: it fires at exactly
// the same flash-operation count as in the uninterrupted run.
func TestResumeAcrossPendingPowerCut(t *testing.T) {
	cfg := worstCfg(NFTL, true, 10)
	cfg.MaxEvents = 6000
	cfg.Faults = &faultinject.Config{Seed: 3, PowerCutAfter: 3000}
	mkSrc := func() trace.Source { return worstSource() }
	full, err := Run(cfg, mkSrc())
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	var cut faultinject.PowerCut
	if !errors.As(full.Err, &cut) {
		t.Fatalf("full run must end in a power cut, got %v", full.Err)
	}
	resumed := resumeFrom(t, cfg, 500, mkSrc)
	if !errors.As(resumed.Err, &cut) {
		t.Fatalf("resumed run must end in the same power cut, got %v", resumed.Err)
	}
	requireSameResult(t, full, resumed, cfg)
	if !resumed.Faults.PowerCut {
		t.Error("resumed run's fault stats must record the cut")
	}
}

// TestResumeRejectsDifferentConfig: the digest guards against resuming a
// checkpoint under a config that shapes different state.
func TestResumeRejectsDifferentConfig(t *testing.T) {
	cfg := worstCfg(FTL, true, 10)
	cfg.MaxEvents = 500
	path := filepath.Join(t.TempDir(), "run.ckpt")
	legA := cfg
	legA.CheckpointPath = path
	if _, err := Run(legA, worstSource()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"endurance": func(c *Config) { c.Endurance = 400 },
		"layer":     func(c *Config) { c.Layer = NFTL },
		"sectors":   func(c *Config) { c.LogicalSectors = 300 },
		"faults":    func(c *Config) { c.Faults = &faultinject.Config{Seed: 1} },
	} {
		bad := cfg
		mutate(&bad)
		if _, err := Resume(path, bad, worstSource()); err == nil {
			t.Errorf("%s: resume under a different configuration must fail", name)
		}
	}
	// Leveler settings and run bounds are deliberately NOT in the digest.
	ok := cfg
	ok.T = 100
	ok.K = 2
	ok.MaxEvents = 900
	if _, err := Resume(path, ok, worstSource()); err == nil {
		t.Error("resume with changed leveler settings must fail: the checkpoint carries K=0 leveler state")
	}
	// ... but only the stored leveler state constrains them: K differs, so
	// the import fails above; with matching K the threshold may change.
	ok2 := cfg
	ok2.T = 100
	ok2.MaxEvents = 900
	if _, err := Resume(path, ok2, worstSource()); err != nil {
		t.Errorf("resume with a new threshold under matching K must work, got %v", err)
	}
}

// TestResumeLevelerPresence: leveler state in the checkpoint requires a
// leveler in the resuming config; the reverse (no state, fresh leveler) is
// the branch-from-checkpoint mode and must work.
func TestResumeLevelerPresence(t *testing.T) {
	base := worstCfg(FTL, false, 0)
	base.MaxEvents = 800
	path := filepath.Join(t.TempDir(), "warm.ckpt")
	legA := base
	legA.CheckpointPath = path
	if _, err := Run(legA, worstSource()); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}
	// Branch: resume the unleveled warm-up with the SW Leveler attached.
	branch := base
	branch.SWL = true
	branch.T = 10
	branch.MaxEvents = 2000
	r, err := Resume(path, branch, worstSource())
	if err != nil {
		t.Fatalf("branch resume: %v", err)
	}
	if r.Leveler() == nil {
		t.Fatal("branch resume must build a fresh leveler")
	}
	res, err := r.Run(worstSourceAt(t, path))
	if err != nil {
		t.Fatalf("branch run: %v", err)
	}
	if res.Events != 2000 {
		t.Errorf("branch run consumed %d events, want 2000", res.Events)
	}

	// The reverse direction: checkpoint with leveler state, resume without.
	lvCfg := worstCfg(FTL, true, 10)
	lvCfg.MaxEvents = 800
	lvCfg.CheckpointPath = filepath.Join(t.TempDir(), "lv.ckpt")
	if _, err := Run(lvCfg, worstSource()); err != nil {
		t.Fatalf("leveled run: %v", err)
	}
	noLv := lvCfg
	noLv.SWL = false
	noLv.CheckpointPath = ""
	if _, err := Resume(lvCfg.CheckpointPath, noLv, worstSource()); err == nil {
		t.Error("dropping the leveler on resume must fail")
	}
}

// worstSourceAt rebuilds a worst-case source positioned at the checkpoint,
// as Resume's caller normally relies on Resume itself to do — this helper
// exists because the branch test calls Resume once for the runner and then
// needs the source it positioned.
func worstSourceAt(t *testing.T, path string) trace.Source {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := checkpoint.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	src := worstSource().(*WorstCaseSource)
	if err := src.RestoreState(st.Trace); err != nil {
		t.Fatal(err)
	}
	return src
}

// TestCheckpointEveryAndRequested: periodic checkpoints land on schedule and
// the request hook triggers an immediate one.
func TestCheckpointEveryAndRequested(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	cfg := worstCfg(FTL, true, 10)
	cfg.MaxEvents = 1000
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = 100
	requested := true // fire exactly once, at the first poll
	polls := 0
	cfg.CheckpointRequested = func() bool {
		polls++
		was := requested
		requested = false
		return was
	}
	if _, err := Run(cfg, worstSource()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if polls != 1000 {
		t.Errorf("request hook polled %d times, want once per event (1000)", polls)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	// The final checkpoint must resume to a no-op completed run.
	src := worstSource()
	r, err := Resume(path, cfg, src)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	// Clear checkpointing so the no-op continuation doesn't rewrite it.
	r.cfg.CheckpointPath, r.cfg.CheckpointEvery, r.cfg.CheckpointRequested = "", 0, nil
	res, err := r.Run(src)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if res.Events != 1000 {
		t.Errorf("resuming a finished run consumed events: %d", res.Events)
	}
}

// TestCheckpointConfigValidation: misconfiguration fails before the run
// starts.
func TestCheckpointConfigValidation(t *testing.T) {
	cfg := worstCfg(FTL, false, 0)
	cfg.MaxEvents = 10
	cfg.CheckpointEvery = 5 // no path
	if _, err := Run(cfg, worstSource()); err == nil {
		t.Error("CheckpointEvery without CheckpointPath must fail")
	}
	cfg2 := worstCfg(FTL, false, 0)
	cfg2.MaxEvents = 10
	cfg2.CheckpointPath = filepath.Join(t.TempDir(), "x.ckpt")
	if _, err := Run(cfg2, trace.NewSliceSource(nil)); err != nil {
		t.Errorf("slice sources are seekable, Run must accept one: %v", err)
	}
	cfg2.MaxEvents = 10
	if _, err := Run(cfg2, notSeekable{}); err == nil {
		t.Error("checkpointing over a non-seekable source must fail")
	}
}

// notSeekable is a trace.Source without state export.
type notSeekable struct{}

func (notSeekable) Next() (trace.Event, bool) { return trace.Event{}, false }

// TestStopOnFirstWearUnchanged guards the loop-order change: moving the
// first-wear stop to the top of the loop must not change how many events a
// single uninterrupted run consumes (the run still stops before the event
// after the wear).
func TestStopOnFirstWearUnchanged(t *testing.T) {
	cfg := worstCfg(FTL, false, 0)
	cfg.StopOnFirstWear = true
	res, err := Run(cfg, worstSource())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WornBlocks == 0 {
		t.Fatal("hot workload must wear a block")
	}
	// Resuming the finished run's final state must consume nothing further.
	path := filepath.Join(t.TempDir(), "worn.ckpt")
	cfg2 := cfg
	cfg2.CheckpointPath = path
	res2, err := Run(cfg2, worstSource())
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if res2.Events != res.Events {
		t.Fatalf("checkpointing changed the run: %d vs %d events", res2.Events, res.Events)
	}
	src := worstSource()
	cfg3 := cfg // no checkpoint config
	r, err := Resume(path, cfg3, src)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	res3, err := r.Run(src)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if res3.Events != res.Events {
		t.Errorf("resuming a wear-stopped run advanced it: %d vs %d events", res3.Events, res.Events)
	}
}
