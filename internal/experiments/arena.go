package experiments

import (
	"fmt"
	"sort"
	"strings"

	"flashswl/internal/core"
	"flashswl/internal/obs"
	"flashswl/internal/sim"
)

// The arena: a tournament over every registered wear-leveling strategy plus
// a no-leveling baseline. Every entrant runs to first failure over the same
// device, trace, and seed, so the leaderboard isolates the strategy as the
// only variable. Rows feed the leaderboard CSV (golden-tested and diffed by
// CI) and per-strategy BENCH summary artifacts for swlstat.

// ArenaBaseline names the no-leveling control entrant.
const ArenaBaseline = "none"

// ArenaStrategies lists the tournament field: the baseline plus every
// registered strategy, in leaderboard-stable order.
func ArenaStrategies() []string {
	return append([]string{ArenaBaseline}, core.LevelerNames()...)
}

// ArenaRow is one entrant's completed run.
type ArenaRow struct {
	Strategy string
	Cfg      sim.Config
	Res      *sim.Result
}

// ArenaResult holds a finished tournament.
type ArenaResult struct {
	Scale Scale
	Layer sim.LayerKind
	K     int
	// PaperT is the paper-scale threshold label every thresholded entrant
	// ran with (the run uses the scaled value).
	PaperT float64
	Rows   []ArenaRow
}

// arenaLabel names an entrant's cell for summaries and hooks, keyed so
// swlstat can diff the same entrant across runs.
func arenaLabel(layer sim.LayerKind, strategy string) string {
	return fmt.Sprintf("arena/%s/%s", layer, strategy)
}

// arenaConfig assembles one entrant's configuration. All entrants share the
// generic threshold knob; the periodic baseline instead needs its period,
// derived from the device size so its forced-recycle cadence scales with the
// arena's geometry.
func (sc Scale) arenaConfig(layer sim.LayerKind, strategy string, k int, paperT float64) sim.Config {
	cfg := sc.config(layer, strategy != ArenaBaseline, k, paperT)
	toFailure(&cfg)
	if strategy != ArenaBaseline {
		cfg.Leveler = strategy
	}
	if strategy == "periodic" {
		cfg.Period = int64(sc.Geometry.Blocks)
	}
	return cfg
}

// RunArena runs the tournament for one layer at one (k, paper-T) sweep
// point. Entrants run in parallel, each over its own replay of the scale's
// shared trace — forked from the layer's leveler-less warm-up when the scale
// configures one and the entrant stays idle through it; completed cells
// report to Scale.OnCellDone under "arena/<layer>/<strategy>" labels.
func RunArena(sc Scale, layer sim.LayerKind, k int, paperT float64) (*ArenaResult, error) {
	out := &ArenaResult{Scale: sc, Layer: layer, K: k, PaperT: paperT}
	w := sc.runWarmup(layer)
	var cells []cell
	for _, strategy := range ArenaStrategies() {
		cells = append(cells, cell{arenaLabel(layer, strategy), sc.arenaConfig(layer, strategy, k, paperT), w})
		out.Rows = append(out.Rows, ArenaRow{Strategy: strategy})
	}
	res, err := sc.runCells(cells)
	if err != nil {
		return nil, err
	}
	for i := range out.Rows {
		out.Rows[i].Cfg, out.Rows[i].Res = cells[i].cfg, res[i]
	}
	return out, nil
}

// ArenaStanding is one leaderboard line.
type ArenaStanding struct {
	Rank     int
	Strategy string
	// Survived marks an entrant that reached the end of the bounded run
	// without wearing out a block; FirstWearYears is 0 for survivors.
	Survived       bool
	FirstWearYears float64
	Erases         int64
	ForcedErases   int64
	LiveCopies     int64
	ForcedCopies   int64
	MaxErase       int
	MeanErase      float64
	DevErase       float64
	SetsRecycled   int64
	SetsSkipped    int64
	Triggered      int64
}

// Leaderboard ranks the entrants on the endurance objective: surviving the
// whole bounded run beats wearing out, later first wear beats earlier, and
// ties break toward the more even distribution (lower max erase count), then
// the cheaper run (fewer erases), then the name for stability.
func (a *ArenaResult) Leaderboard() []ArenaStanding {
	standings := make([]ArenaStanding, 0, len(a.Rows))
	for _, row := range a.Rows {
		res := row.Res
		standings = append(standings, ArenaStanding{
			Strategy:       row.Strategy,
			Survived:       res.FirstWear < 0,
			FirstWearYears: res.FirstWearYears(),
			Erases:         res.Erases,
			ForcedErases:   res.ForcedErases,
			LiveCopies:     res.LiveCopies,
			ForcedCopies:   res.ForcedCopies,
			MaxErase:       int(res.EraseStats.Max()),
			MeanErase:      res.EraseStats.Mean(),
			DevErase:       res.EraseStats.StdDev(),
			SetsRecycled:   res.Leveler.SetsRecycled,
			SetsSkipped:    res.Leveler.SetsSkipped,
			Triggered:      res.Leveler.Triggered,
		})
	}
	sort.SliceStable(standings, func(i, j int) bool {
		a, b := standings[i], standings[j]
		if a.Survived != b.Survived {
			return a.Survived
		}
		if a.FirstWearYears != b.FirstWearYears {
			return a.FirstWearYears > b.FirstWearYears
		}
		if a.MaxErase != b.MaxErase {
			return a.MaxErase < b.MaxErase
		}
		if a.Erases != b.Erases {
			return a.Erases < b.Erases
		}
		return a.Strategy < b.Strategy
	})
	for i := range standings {
		standings[i].Rank = i + 1
	}
	return standings
}

// ArenaCSV renders a leaderboard as deterministic CSV — every column derives
// from the simulation, none from the wall clock — so the output is stable
// byte for byte for a fixed scale and seed.
func ArenaCSV(a *ArenaResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# arena %s k=%d T=%g\n", a.Layer, a.K, a.PaperT)
	b.WriteString("rank,strategy,survived,first_wear_years,erases,forced_erases,live_copies,forced_copies,max_erase,mean_erase,dev_erase,sets_recycled,sets_skipped,triggered\n")
	for _, s := range a.Leaderboard() {
		fmt.Fprintf(&b, "%d,%s,%v,%.6g,%d,%d,%d,%d,%d,%.6g,%.6g,%d,%d,%d\n",
			s.Rank, s.Strategy, s.Survived, s.FirstWearYears,
			s.Erases, s.ForcedErases, s.LiveCopies, s.ForcedCopies,
			s.MaxErase, s.MeanErase, s.DevErase,
			s.SetsRecycled, s.SetsSkipped, s.Triggered)
	}
	return b.String()
}

// FormatArena renders the leaderboard for terminal output.
func FormatArena(a *ArenaResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "arena: %s, k=%d, T=%g (paper scale)\n", a.Layer, a.K, a.PaperT)
	fmt.Fprintf(&b, "%4s %-10s %9s %12s %10s %8s %9s %8s\n",
		"rank", "strategy", "survived", "first wear/y", "erases", "forced", "max erase", "recycled")
	for _, s := range a.Leaderboard() {
		fmt.Fprintf(&b, "%4d %-10s %9v %12.4g %10d %8d %9d %8d\n",
			s.Rank, s.Strategy, s.Survived, s.FirstWearYears,
			s.Erases, s.ForcedErases, s.MaxErase, s.SetsRecycled)
	}
	return b.String()
}

// WriteArenaArtifacts writes the leaderboard CSV plus one BENCH summary per
// entrant into dir: leaderboard.csv and BENCH_arena_<strategy>.json. The
// per-strategy files carry a single run record under the entrant's arena
// label, so `swlstat diff` against a baseline summary containing the same
// labels compares each strategy in isolation. It returns the files written,
// relative to dir.
func WriteArenaArtifacts(dir string, a *ArenaResult) ([]string, error) {
	files := []artifact{textArtifact("leaderboard.csv", ArenaCSV(a))}
	for _, row := range a.Rows {
		b := obs.NewBenchSummary(a.Scale.Name)
		b.Add(sim.Summarize(arenaLabel(a.Layer, row.Strategy), row.Cfg, row.Res))
		files = append(files, artifact{fmt.Sprintf("BENCH_arena_%s.json", row.Strategy), b.WriteFile})
	}
	return writeArtifacts(dir, files)
}
