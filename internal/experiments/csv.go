package experiments

import (
	"fmt"
	"strings"

	"flashswl/internal/nand"
	"flashswl/internal/sim"
	"flashswl/internal/trace"
)

// CSV renderers, for piping experiment output into plotting tools. Every
// figure becomes long-form rows: experiment,layer,k,T,value.

// SeriesCSV renders a figure's series as CSV rows with a header. The
// baseline appears with T=0.
func SeriesCSV(experiment string, s *Series, ks []int, ts []float64) string {
	var b strings.Builder
	b.WriteString("experiment,layer,k,T,value\n")
	for _, k := range ks {
		fmt.Fprintf(&b, "%s,%s,%d,0,%g\n", experiment, s.Layer, k, s.Baseline)
	}
	for _, t := range ts {
		for _, k := range ks {
			if c := s.CellAt(k, t); c != nil {
				fmt.Fprintf(&b, "%s,%s,%d,%g,%g\n", experiment, s.Layer, k, t, c.Value)
			}
		}
	}
	return b.String()
}

// Table4CSV renders Table 4 rows as CSV.
func Table4CSV(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("configuration,avg,dev,max\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%q,%g,%g,%d\n", r.Label, r.Avg, r.Dev, r.Max)
	}
	return b.String()
}

// Table2Measured validates the worst-case erase-overhead model in
// simulation: it runs the Figure 4 scenario (hot updates over a cold
// majority) on a scaled FTL device with the SW Leveler at the given
// effective threshold and returns the predicted and measured increased
// erase ratios. Measured is forced erases over non-forced erases, the
// simulation counterpart of C/(T·(H+C)−C).
//
// The model assumes the cold region persists across resetting intervals, so
// the run uses the dual-frontier FTL (relocated cold data goes to its own
// blocks). Under the paper's single frontier, relocated cold data mixes
// into the hot stream and the measured overhead falls well below the
// analytic worst case after the first interval — the bound is loose there,
// not violated.
func Table2Measured(hotBlocks, coldBlocks int, t float64, ppb int) (predicted, measured float64, err error) {
	geo := nand.Geometry{Blocks: hotBlocks + coldBlocks, PagesPerBlock: ppb, PageSize: 512, SpareSize: 16}
	cold := coldBlocks * ppb * 8 / 10 // leave room so the layer has slack
	hot := hotBlocks * ppb / 2
	cfg := sim.Config{
		Geometry:        geo,
		Endurance:       1 << 30, // never wear out; measure steady state
		Layer:           sim.FTL,
		LogicalSectors:  int64(hot+cold) * int64(geo.PageSize/512),
		SWL:             true,
		K:               0,
		T:               t,
		NoSpare:         true,
		FTLDualFrontier: true,
		Seed:            3,
		MaxEvents:       int64(400_000),
	}
	runs, err := runCells(
		[]cell{{label: fmt.Sprintf("tab2m/H%d_C%d_T%g", hotBlocks, coldBlocks, t), cfg: cfg}},
		func() trace.Source { return sim.NewWorstCaseSource(geo.PageSize/512, hot, cold, 1_000_000) },
		nil)
	if err != nil {
		return 0, 0, err
	}
	res := runs[0]
	predicted = float64(coldBlocks) / (t*float64(hotBlocks+coldBlocks) - float64(coldBlocks))
	regular := res.Erases - res.ForcedErases
	if regular > 0 {
		measured = float64(res.ForcedErases) / float64(regular)
	}
	return predicted, measured, nil
}
