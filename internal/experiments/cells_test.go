package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"flashswl/internal/sim"
)

// TestRunCellsOrderAndReporting drives the cell runner with cells told apart
// by their event bound: results come back in list order and every label is
// reported exactly once, whatever the worker count.
func TestRunCellsOrderAndReporting(t *testing.T) {
	sc := QuickScale()
	var cells []cell
	for i := 0; i < 7; i++ {
		cfg := sc.config(sim.FTL, i%2 == 1, 0, 100)
		cfg.MaxEvents = int64(300 * (i + 1))
		cells = append(cells, cell{label: fmt.Sprintf("c%d", i), cfg: cfg})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 3, 16} {
		runtime.GOMAXPROCS(workers) // the pool's size
		var mu sync.Mutex
		seen := map[string]int{}
		sc.OnCellDone = func(label string, cfg sim.Config, res *sim.Result) {
			mu.Lock()
			defer mu.Unlock()
			seen[label]++
			if res.Events != cfg.MaxEvents {
				t.Errorf("%s reported with %d events, its bound is %d", label, res.Events, cfg.MaxEvents)
			}
		}
		res, err := sc.runCells(cells)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Events != cells[i].cfg.MaxEvents {
				t.Errorf("workers=%d: result %d has %d events, want cell %s's %d", workers, i, r.Events, cells[i].label, cells[i].cfg.MaxEvents)
			}
			if seen[cells[i].label] != 1 {
				t.Errorf("workers=%d: %s reported %d times", workers, cells[i].label, seen[cells[i].label])
			}
		}
	}
}

// TestRunCellsErrorNamesCell: a cell that cannot run fails the sweep with its
// label, and is not reported.
func TestRunCellsErrorNamesCell(t *testing.T) {
	sc := QuickScale()
	good := sc.config(sim.FTL, true, 0, 100)
	good.MaxEvents = 200
	bad := good
	bad.Leveler = "no-such-strategy"
	sc.OnCellDone = func(label string, _ sim.Config, _ *sim.Result) {
		if label == "sweep/bad" {
			t.Error("failed cell was reported as done")
		}
	}
	_, err := sc.runCells([]cell{{label: "sweep/good", cfg: good}, {label: "sweep/bad", cfg: bad}})
	if err == nil || !strings.Contains(err.Error(), "cell sweep/bad:") {
		t.Fatalf("err = %v, want one naming cell sweep/bad", err)
	}
}

// TestRunCellsWarmupFallback: a cell that cannot use its warm-up — its
// leveler triggers inside the prefix, or its bound stops short of it — falls
// back to a from-scratch run with the same result as a cell given none; a
// cell that can branch matches too.
func TestRunCellsWarmupFallback(t *testing.T) {
	sc := branchScale(8000)
	w := sc.runWarmup(sim.FTL)
	if w == nil {
		t.Fatal("8000-event warm-up should be usable at quick scale")
	}
	early := sc.config(sim.FTL, true, 0, 100) // triggers inside the warm-up
	sc.aged(&early)
	short := sc.config(sim.FTL, true, 0, 1000)
	short.MaxEvents = 5000 // stops inside the warm-up
	late := sc.config(sim.FTL, true, 0, 1000)
	sc.aged(&late)
	if _, ok, err := w.branchRun(early, sc.source()); err != nil || ok {
		t.Fatalf("early-trigger cell: branched=%v err=%v, want a refusal", ok, err)
	}
	if w.usable(short) || !w.usable(late) {
		t.Fatal("usable() misjudges the event bounds")
	}
	var cells []cell
	for _, cfg := range []sim.Config{early, short, late} {
		cells = append(cells, cell{label: "warm", cfg: cfg, warm: w}, cell{label: "scratch", cfg: cfg})
	}
	res, err := sc.runCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(res); i += 2 {
		if !reflect.DeepEqual(res[i], res[i+1]) {
			t.Errorf("cell %d: result with a warm-up differs from the from-scratch one:\n%+v\n%+v", i/2, res[i], res[i+1])
		}
	}
}
