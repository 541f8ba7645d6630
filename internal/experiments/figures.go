package experiments

import (
	"fmt"
	"strings"

	"flashswl/internal/sim"
)

// Cell is one (k, T) data point of a figure.
type Cell struct {
	K     int
	T     float64 // paper-scale threshold label
	Value float64
	Run   *sim.Result
}

// Series is one sub-figure: a baseline plus the k×T sweep for one layer.
type Series struct {
	Layer    sim.LayerKind
	Baseline float64
	BaseRun  *sim.Result
	Cells    []Cell
	// Absolute marks a series whose values are absolute counts rather than
	// percentages of the baseline — Figure 7 falls back to this when the
	// baseline made zero live-page copies, where a ratio is undefined.
	Absolute bool
}

// CellAt returns the cell for (k, paperT), or nil.
func (s *Series) CellAt(k int, paperT float64) *Cell { return cellAt(s.Cells, k, paperT) }

func cellAt(cells []Cell, k int, paperT float64) *Cell {
	for i := range cells {
		if cells[i].K == k && cells[i].T == paperT {
			return &cells[i]
		}
	}
	return nil
}

// project turns one layer's runs into a figure's Series: value picks the
// plotted quantity out of each cell's run, baseline is the baseline's.
func project(layer sim.LayerKind, baseline float64, base *sim.Result, cells []Cell, value func(*sim.Result) float64) *Series {
	s := &Series{Layer: layer, Baseline: baseline, BaseRun: base, Cells: make([]Cell, len(cells))}
	for i, c := range cells {
		s.Cells[i] = Cell{K: c.K, T: c.T, Value: value(c.Run), Run: c.Run}
	}
	return s
}

// Figure5 reproduces one sub-figure of Figure 5: the first failure time (in
// simulated years) without SWL and with SWL across the given k and T
// sweeps (PaperKs and PaperTs for the paper's full grid). The warm-up (when
// configured) runs the shared prefix once, up front.
func Figure5(sc Scale, layer sim.LayerKind, ks []int, ts []float64) (*Series, error) {
	cells, points := sc.gridCells("fail", layer, ks, ts, sc.runWarmup(layer), toFailure)
	res, err := sc.runCells(cells)
	if err != nil {
		return nil, err
	}
	for i := range points {
		points[i].Run = res[1+i]
	}
	return project(layer, res[0].FirstWearYears(), res[0], points, (*sim.Result).FirstWearYears), nil
}

// AgedRuns holds the fixed-span runs shared by Table 4 and Figures 6–7.
type AgedRuns struct {
	Scale Scale
	Base  map[sim.LayerKind]*sim.Result
	Cells map[sim.LayerKind][]Cell // Value unset; Run populated
}

// RunAged executes the fixed-aging sweep for both layers once, as one cell
// list on one pool; Table4, Figure6, and Figure7 are different projections
// of these runs.
func RunAged(sc Scale, ks []int, ts []float64) (*AgedRuns, error) {
	out := &AgedRuns{
		Scale: sc,
		Base:  map[sim.LayerKind]*sim.Result{},
		Cells: map[sim.LayerKind][]Cell{},
	}
	layers := []sim.LayerKind{sim.FTL, sim.NFTL}
	var cells []cell
	for _, layer := range layers {
		lc, points := sc.gridCells("aged", layer, ks, ts, sc.runWarmup(layer), sc.aged)
		cells = append(cells, lc...)
		out.Cells[layer] = points
	}
	res, err := sc.runCells(cells)
	if err != nil {
		return nil, err
	}
	for _, layer := range layers {
		points := out.Cells[layer]
		out.Base[layer] = res[0]
		for i := range points {
			points[i].Run = res[1+i]
		}
		res = res[1+len(points):]
	}
	return out, nil
}

// Table4Row is one row of Table 4: the erase-count distribution of a
// configuration after the aging span.
type Table4Row struct {
	Label    string
	Avg, Dev float64
	Max      int
}

// Table4 projects the aged runs into the paper's Table 4 rows: baseline and
// the four (k, T) corners for each layer.
func (a *AgedRuns) Table4() []Table4Row {
	row := func(label string, run *sim.Result) Table4Row {
		return Table4Row{Label: label, Avg: run.EraseStats.Mean(), Dev: run.EraseStats.StdDev(), Max: int(run.EraseStats.Max())}
	}
	corners := []struct {
		k int
		t float64
	}{{0, 100}, {0, 1000}, {3, 100}, {3, 1000}}
	var rows []Table4Row
	for _, layer := range []sim.LayerKind{sim.FTL, sim.NFTL} {
		rows = append(rows, row(layer.String(), a.Base[layer]))
		for _, c := range corners {
			if cell := cellAt(a.Cells[layer], c.k, c.t); cell != nil {
				rows = append(rows, row(fmt.Sprintf("%s + SWL + k=%d + T=%.0f", layer, c.k, c.t), cell.Run))
			}
		}
	}
	return rows
}

// Figure6 projects the aged runs into the increased ratio of block erases
// (%) for one layer, baseline = 100.
func (a *AgedRuns) Figure6(layer sim.LayerKind) *Series {
	base := a.Base[layer]
	return project(layer, 100, base, a.Cells[layer], func(r *sim.Result) float64 { return r.EraseRatio(base) })
}

// Figure7 projects the aged runs into the increased ratio of live-page
// copyings (%) for one layer, baseline = 100. A short or read-mostly aging
// span can leave the baseline with zero copies, making every ratio +Inf; the
// series then switches to absolute copy counts (Absolute=true, baseline 0)
// so the figure still renders meaningful numbers.
func (a *AgedRuns) Figure7(layer sim.LayerKind) *Series {
	base := a.Base[layer]
	if base.LiveCopies == 0 {
		s := project(layer, 0, base, a.Cells[layer], func(r *sim.Result) float64 { return float64(r.LiveCopies) })
		s.Absolute = true
		return s
	}
	return project(layer, 100, base, a.Cells[layer], func(r *sim.Result) float64 { return r.CopyRatio(base) })
}

// FormatSeries renders a Series as the rows behind one sub-figure: one line
// per T, one column per k, plus the baseline.
func FormatSeries(s *Series, title, unit string, ks []int, ts []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n", title, unit)
	fmt.Fprintf(&b, "%-24s", "series \\ k")
	for _, k := range ks {
		fmt.Fprintf(&b, "%10d", k)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-24s", s.Layer.String()+" (baseline)")
	for range ks {
		fmt.Fprintf(&b, "%10.4g", s.Baseline)
	}
	b.WriteByte('\n')
	for _, t := range ts {
		fmt.Fprintf(&b, "%-24s", fmt.Sprintf("%s+SWL+T=%.0f", s.Layer, t))
		for _, k := range ks {
			if c := s.CellAt(k, t); c != nil {
				fmt.Fprintf(&b, "%10.4g", c.Value)
			} else {
				fmt.Fprintf(&b, "%10s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatTable4 renders Table 4 in the paper's layout.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s %10s %10s\n", "", "Avg.", "Dev.", "Max.")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %10.0f %10.0f %10d\n", r.Label, r.Avg, r.Dev, r.Max)
	}
	return b.String()
}
