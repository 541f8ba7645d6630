package experiments

import (
	"fmt"
	"strings"

	"flashswl/internal/sim"
)

// The ablations (DESIGN.md §4): each design choice the paper makes, or that
// this repository adds beside it, flipped one at a time against one control —
// FTL with the SW Leveler at k=0, T=100, the Figure 5 cell — and run to first
// failure over the shared trace. A row carries the work counters beside the
// first-wear time, so a variant that changes nothing is visible as such.

// AblationRow is one completed variant.
type AblationRow struct {
	Variant string
	Cfg     sim.Config
	Res     *sim.Result
}

// ablations lists the variants, control first. Each mutates the control
// configuration; the DFTL rows swap the layer and sweep its translation-page
// cache budget (the RAM-vs-wear tradeoff behind the paper's remark that plain
// FTL "needs large main-memory space").
var ablations = []struct {
	variant string
	layer   sim.LayerKind
	mutate  func(*sim.Config)
}{
	{"control", sim.FTL, func(*sim.Config) {}},
	{"select=random", sim.FTL, func(c *sim.Config) { c.SelectRandom = true }},
	{"frontier=dual", sim.FTL, func(c *sim.Config) { c.FTLDualFrontier = true }},
	{"watermark=5%", sim.FTL, func(c *sim.Config) { c.GCFreeFraction = 0.05 }},
	{"leveler=periodic/40", sim.FTL, func(c *sim.Config) { c.Leveler, c.Period = "periodic", 40 }},
	{"cache=2", sim.DFTL, func(c *sim.Config) { c.DFTLCache = 2 }},
	{"cache=8", sim.DFTL, func(c *sim.Config) { c.DFTLCache = 8 }},
	{"cache=64", sim.DFTL, func(c *sim.Config) { c.DFTLCache = 64 }},
}

// firstWearHours is the variant's first failure time in simulated hours (the
// quick scale wears out in two); 0 when no block wore out.
func (r AblationRow) firstWearHours() float64 { return r.Res.FirstWearYears() * 365 * 24 }

// RunAblations runs every variant to first failure; completed cells report
// to Scale.OnCellDone under "ablate/<layer>/<variant>" labels.
func RunAblations(sc Scale) ([]AblationRow, error) {
	var (
		cells []cell
		rows  []AblationRow
	)
	for _, a := range ablations {
		cfg := sc.config(a.layer, true, 0, 100)
		toFailure(&cfg)
		a.mutate(&cfg)
		cells = append(cells, cell{label: fmt.Sprintf("ablate/%s/%s", a.layer, a.variant), cfg: cfg})
		rows = append(rows, AblationRow{Variant: a.variant, Cfg: cfg})
	}
	res, err := sc.runCells(cells)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].Res = res[i]
	}
	return rows, nil
}

// AblationsCSV renders the rows as deterministic CSV, every column derived
// from the simulation; it is the terminal rendering too.
func AblationsCSV(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("layer,variant,first_wear_hours,erases,forced_erases,live_copies,gc_runs\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%.6g,%d,%d,%d,%d\n", r.Cfg.Layer, r.Variant, r.firstWearHours(),
			r.Res.Erases, r.Res.ForcedErases, r.Res.LiveCopies, r.Res.GCRuns)
	}
	return b.String()
}
