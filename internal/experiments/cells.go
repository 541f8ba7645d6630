package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"flashswl/internal/sim"
	"flashswl/internal/trace"
)

// Every sweep in this package — the figures, Table 4, the arena, the cache
// grid, the wear series, the ablations — is a list of cells handed to one
// runner. A sweep's own code builds the list and projects the results.

// cell is one independent simulation: a stable label for summaries and hooks
// ("fail/FTL/k0_T100", "aged/NFTL/base", "arena/FTL/gap", ...), the
// configuration to run, and optionally the shared prefix to fork from.
type cell struct {
	label string
	cfg   sim.Config
	warm  *warmup // nil: always run from scratch
}

// runCells runs every cell, as many at a time as there are CPUs — each is an
// independent simulation over its own stream from source — and returns the
// results in list order. A cell forks from its warm-up when it can and runs
// from scratch when not (see branch.go); a run error or invariant violation
// fails the sweep with the label of the first such cell in the list; every
// completed cell is reported to done exactly once, concurrently with others.
func runCells(cells []cell, source func() trace.Source, done func(string, sim.Config, *sim.Result)) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(cells))
	errs := make([]error, len(cells))
	running := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range cells {
		running <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() { <-running; wg.Done() }()
			c := cells[i]
			res, err := c.run(source)
			if err == nil {
				err = checkRun(res)
			}
			if err != nil {
				errs[i] = err
				return
			}
			if done != nil {
				done(c.label, c.cfg, res)
			}
			out[i] = res
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: cell %s: %w", cells[i].label, err)
		}
	}
	return out, nil
}

// runCells runs a sweep over the scale's shared trace, reporting to its hook.
func (sc Scale) runCells(cells []cell) ([]*sim.Result, error) {
	return runCells(cells, sc.source, sc.OnCellDone)
}

// checkRun fails a completed cell on a run error or (when the scale attached
// the invariant checker) on any recorded invariant violation.
func checkRun(res *sim.Result) error {
	if res.Err != nil {
		return fmt.Errorf("run failed after %d events: %w", res.Events, res.Err)
	}
	if n := len(res.InvariantViolations); n > 0 {
		return fmt.Errorf("run violated invariants %d times, first: %s",
			n, res.InvariantViolations[0].String())
	}
	return nil
}

// The two stop rules of the paper's evaluation: run until the first block
// wears out (Figure 5), or for the scale's fixed aging span, continuing past
// wear-outs (Table 4, Figures 6–7).
func toFailure(cfg *sim.Config)       { cfg.StopOnFirstWear = true }
func (sc Scale) aged(cfg *sim.Config) { cfg.MaxSimTime = sc.aging() }

// gridCells enumerates one layer's sweep — the baseline, then every (k, T)
// point T-major, the row order of the figures — as runnable cells plus the
// points (K and T set) to hang the results on: result 0 is the baseline's,
// result 1+i belongs to points[i]. shape finishes each configuration (stop
// rule, sampling). kind prefixes the labels ("fail", "aged", "series"),
// which use the paper-scale threshold so a cell keeps its name across
// scales.
func (sc Scale) gridCells(kind string, layer sim.LayerKind, ks []int, ts []float64, w *warmup, shape func(*sim.Config)) ([]cell, []Cell) {
	mk := func(point string, swl bool, k int, paperT float64) cell {
		cfg := sc.config(layer, swl, k, paperT)
		shape(&cfg)
		return cell{label: fmt.Sprintf("%s/%s/%s", kind, layer, point), cfg: cfg, warm: w}
	}
	cells := []cell{mk("base", false, 0, 0)}
	var points []Cell
	for _, t := range ts {
		for _, k := range ks {
			cells = append(cells, mk(fmt.Sprintf("k%d_T%g", k, t), true, k, t))
			points = append(points, Cell{K: k, T: t})
		}
	}
	return cells, points
}

// artifact is one named output file of an experiment.
type artifact struct {
	name  string
	write func(path string) error
}

// textArtifact is an artifact with a fixed body, such as a CSV.
func textArtifact(name, body string) artifact {
	return artifact{name, func(path string) error { return os.WriteFile(path, []byte(body), 0o644) }}
}

// writeArtifacts creates dir if needed and writes every file into it,
// returning the names written (relative to dir) in list order.
func writeArtifacts(dir string, files []artifact) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names := make([]string, len(files))
	for i, f := range files {
		if err := f.write(filepath.Join(dir, f.name)); err != nil {
			return nil, err
		}
		names[i] = f.name
	}
	return names, nil
}
