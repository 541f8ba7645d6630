package sim

import (
	"testing"
	"time"

	"flashswl/internal/core"
	"flashswl/internal/obs"
)

// tracedRun runs the worst-case workload with causal tracing on and returns
// the full span snapshot plus the result.
func tracedRun(t *testing.T, layer LayerKind, spans int) (*obs.TraceSnapshot, *Result) {
	t.Helper()
	cfg := worstCfg(layer, true, 10)
	cfg.MaxEvents = 6000
	cfg.TraceSpans = spans
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(worstSource())
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("run ended with layer error: %v", res.Err)
	}
	return r.Tracer().Snapshot(), res
}

// treeIndex maps each retained span to its retained children.
type treeIndex struct {
	byID     map[obs.SpanID]obs.Span
	children map[obs.SpanID][]obs.SpanID
}

func indexSpans(snap *obs.TraceSnapshot) *treeIndex {
	ix := &treeIndex{byID: map[obs.SpanID]obs.Span{}, children: map[obs.SpanID][]obs.SpanID{}}
	for _, s := range snap.Spans {
		ix.byID[s.ID] = s
		ix.children[s.Parent] = append(ix.children[s.Parent], s.ID)
	}
	return ix
}

// hasDescendant reports whether id's subtree contains a span of the kind
// passing the filter.
func (ix *treeIndex) hasDescendant(id obs.SpanID, match func(obs.Span) bool) bool {
	for _, c := range ix.children[id] {
		if match(ix.byID[c]) || ix.hasDescendant(c, match) {
			return true
		}
	}
	return false
}

func TestHostWriteSpanTreeReachesErase(t *testing.T) {
	for _, layer := range []LayerKind{FTL, NFTL, DFTL} {
		t.Run(layer.String(), func(t *testing.T) {
			snap, res := tracedRun(t, layer, 1<<20)
			if res.Erases == 0 {
				t.Fatal("workload produced no erases; the test proves nothing")
			}
			ix := indexSpans(snap)
			writesWithErase := 0
			for _, s := range snap.Spans {
				if s.Kind != obs.SpanHostWrite {
					continue
				}
				if s.End == 0 {
					t.Fatalf("host_write span %d left open", s.ID)
				}
				if ix.hasDescendant(s.ID, func(d obs.Span) bool { return d.Kind == obs.SpanErase }) {
					writesWithErase++
				}
			}
			if writesWithErase == 0 {
				t.Error("no host write's span tree reaches a chip erase")
			}
			// Every erase must be attributable: its ancestry must terminate in
			// a host operation or a leveler episode, never in a lost parent.
			for _, s := range snap.Spans {
				if s.Kind != obs.SpanErase {
					continue
				}
				root := s
				for root.Parent != 0 {
					p, ok := ix.byID[root.Parent]
					if !ok {
						t.Fatalf("erase span %d has a parent chain leaving the ring", s.ID)
					}
					root = p
				}
				switch root.Kind {
				case obs.SpanHostWrite, obs.SpanHostRead, obs.SpanSWLEpisode:
				default:
					t.Errorf("erase span %d roots at %s, want a host op or swl_episode", s.ID, root.Kind)
				}
			}
		})
	}
}

func TestSWLEpisodeTreeAttributesLiveCopies(t *testing.T) {
	snap, res := tracedRun(t, FTL, 1<<20)
	if res.Leveler.SetsRecycled == 0 {
		t.Fatal("leveler never acted; raise the workload length")
	}
	ix := indexSpans(snap)
	episodes, withCopies, withErase := 0, 0, 0
	for _, s := range snap.Spans {
		if s.Kind != obs.SpanSWLEpisode {
			continue
		}
		episodes++
		if ix.hasDescendant(s.ID, func(d obs.Span) bool { return d.Kind == obs.SpanLiveCopy && d.Pages > 0 }) {
			withCopies++
		}
		if ix.hasDescendant(s.ID, func(d obs.Span) bool { return d.Kind == obs.SpanErase }) {
			withErase++
		}
	}
	if episodes == 0 {
		t.Fatal("no swl_episode spans recorded")
	}
	if withErase == 0 {
		t.Error("no swl_episode tree reaches an erase")
	}
	if res.ForcedCopies > 0 && withCopies == 0 {
		t.Error("leveler forced copies but no episode tree attributes a live copy")
	}
	// The episode structure: scan and set_select spans are direct children.
	for _, s := range snap.Spans {
		if s.Kind == obs.SpanScan || s.Kind == obs.SpanSetSelect {
			p, ok := ix.byID[s.Parent]
			if !ok || p.Kind != obs.SpanSWLEpisode {
				t.Errorf("%s span %d parents to %v, want swl_episode", s.Kind, s.ID, s.Parent)
			}
		}
	}
}

// TestEveryLevelerEpisodeTreesOwnTheForcedErases is the episode-tree test for
// whichever leveler is attached: every registered strategy's acting
// invocations must show up as swl_episode trees, and the erases rooted in
// them must be exactly the erases the run booked to the leveler — none left
// to the host-write trees, none to no tree at all.
func TestEveryLevelerEpisodeTreesOwnTheForcedErases(t *testing.T) {
	for _, name := range core.LevelerNames() {
		t.Run(name, func(t *testing.T) {
			cfg := worstCfg(FTL, true, 10)
			cfg.Leveler = name
			cfg.Period = 40
			cfg.MaxEvents = 6000
			cfg.TraceSpans = 1 << 20
			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(worstSource())
			if err != nil || res.Err != nil {
				t.Fatalf("run: %v / %v", err, res.Err)
			}
			if res.ForcedErases == 0 {
				t.Fatal("leveler never forced an erase; raise the workload length")
			}
			snap := r.Tracer().Snapshot()
			ix := indexSpans(snap)
			var episodes, acting, episodeErases int64
			for _, s := range snap.Spans {
				switch s.Kind {
				case obs.SpanSWLEpisode:
					episodes++
					if ix.hasDescendant(s.ID, func(d obs.Span) bool { return d.Kind == obs.SpanSetSelect }) {
						acting++
					}
				case obs.SpanErase:
					root := s
					for root.Parent != 0 {
						root = ix.byID[root.Parent]
					}
					if root.Kind == obs.SpanSWLEpisode {
						episodeErases++
					}
				}
			}
			if acting != res.Leveler.Triggered {
				t.Errorf("%d of %d swl_episode trees hold a set_select, Stats.Triggered = %d",
					acting, episodes, res.Leveler.Triggered)
			}
			if episodeErases != res.ForcedErases {
				t.Errorf("erases rooted in swl_episode trees = %d, the run booked %d to the leveler",
					episodeErases, res.ForcedErases)
			}
		})
	}
}

func TestTracedRunStaysDeterministic(t *testing.T) {
	snapA, resA := tracedRun(t, FTL, 1<<16)
	snapB, resB := tracedRun(t, FTL, 1<<16)
	if resA.Erases != resB.Erases || resA.PageWrites != resB.PageWrites {
		t.Fatalf("traced reruns diverge: %d/%d erases, %d/%d writes",
			resA.Erases, resB.Erases, resA.PageWrites, resB.PageWrites)
	}
	if snapA.Total != snapB.Total || len(snapA.Spans) != len(snapB.Spans) {
		t.Fatalf("span streams diverge: %d/%d total", snapA.Total, snapB.Total)
	}
	for i := range snapA.Spans {
		if snapA.Spans[i] != snapB.Spans[i] {
			t.Fatalf("span %d differs between identical runs:\n%+v\n%+v", i, snapA.Spans[i], snapB.Spans[i])
		}
	}
	// Tracing must not perturb the simulation itself.
	cfg := worstCfg(FTL, true, 10)
	cfg.MaxEvents = 6000
	resPlain, err := Run(cfg, worstSource())
	if err != nil {
		t.Fatal(err)
	}
	if resPlain.Erases != resA.Erases || resPlain.LiveCopies != resA.LiveCopies {
		t.Errorf("tracing changed the run: erases %d vs %d, copies %d vs %d",
			resA.Erases, resPlain.Erases, resA.LiveCopies, resPlain.LiveCopies)
	}
}

func TestResultStageLatency(t *testing.T) {
	_, res := tracedRun(t, FTL, 1<<16)
	for _, stage := range []string{"host_write", "translate", "erase"} {
		sl, ok := res.StageLatency[stage]
		if !ok || sl.Count == 0 {
			t.Errorf("stage %q missing from Result.StageLatency (%v)", stage, res.StageLatency)
		}
	}
	if res.StageLatency["erase"].Count != res.Erases+res.RetiredBlocks {
		// Every erase attempt opens exactly one erase span (retirements
		// too — the span covers the attempt, not just success).
		t.Logf("note: erase spans %d, result erases %d, retired %d",
			res.StageLatency["erase"].Count, res.Erases, res.RetiredBlocks)
	}
}

func TestTraceClockOverride(t *testing.T) {
	cfg := worstCfg(FTL, true, 10)
	cfg.MaxEvents = 200
	cfg.TraceSpans = 1 << 12
	var fake int64
	cfg.TraceClock = func() int64 { fake += 1000; return fake }
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(worstSource()); err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Tracer().Snapshot().Spans {
		if s.Begin%1000 != 0 {
			t.Fatalf("span %d did not use the injected clock (begin=%d)", s.ID, s.Begin)
		}
	}
}

// TestTraceSampleThinsHostTrees runs the monitoring profile: 1-in-8 host
// sampling must cut the recorded host spans to roughly that fraction while
// every leveler episode is still recorded in full.
func TestTraceSampleThinsHostTrees(t *testing.T) {
	full, resFull := tracedRun(t, FTL, 1<<20)
	cfg := worstCfg(FTL, true, 10)
	cfg.MaxEvents = 6000
	cfg.TraceSpans = 1 << 20
	cfg.TraceSample = 8
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(worstSource())
	if err != nil {
		t.Fatal(err)
	}
	if res.Erases != resFull.Erases {
		t.Fatalf("sampling changed the run: %d erases vs %d", res.Erases, resFull.Erases)
	}
	count := func(snap *obs.TraceSnapshot, kind obs.SpanKind) int {
		n := 0
		for _, s := range snap.Spans {
			if s.Kind == kind {
				n++
			}
		}
		return n
	}
	snap := r.Tracer().Snapshot()
	fullWrites, gotWrites := count(full, obs.SpanHostWrite), count(snap, obs.SpanHostWrite)
	if gotWrites == 0 || gotWrites > fullWrites/4 {
		t.Errorf("sampling 1-in-8 recorded %d of %d host writes, want a small non-zero fraction", gotWrites, fullWrites)
	}
	if f, g := count(full, obs.SpanSWLEpisode), count(snap, obs.SpanSWLEpisode); g != f {
		t.Errorf("sampling dropped episodes: %d of %d recorded", g, f)
	}
	if f, g := count(full, obs.SpanScan), count(snap, obs.SpanScan); g != f {
		t.Errorf("sampling dropped scans: %d of %d recorded", g, f)
	}
}

// TestTracerOverheadSmoke keeps the tracing-on path exercised under the
// same workload the benchmarks use; the ≤5% events/sec claim itself lives
// in BenchmarkRunnerTraced vs BenchmarkRunnerBare (obs_test.go).
func TestTracerOverheadSmoke(t *testing.T) {
	start := time.Now()
	_, res := tracedRun(t, FTL, 1<<14)
	if res.Events == 0 {
		t.Fatal("no events driven")
	}
	t.Logf("traced %d events in %v", res.Events, time.Since(start))
}
