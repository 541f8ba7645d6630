package experiments

import (
	"sync"

	"flashswl/internal/obs"
	"flashswl/internal/sim"
)

// SummaryCollector aggregates completed experiment cells into a BENCH
// summary artifact. Wire CellDone into Scale.OnCellDone; the collector is
// safe for the worker pool's concurrent calls. A label reported twice
// (e.g. the same sweep re-run) replaces the earlier record.
type SummaryCollector struct {
	mu sync.Mutex
	b  *obs.BenchSummary
}

// NewSummaryCollector returns an empty collector for the named scale.
func NewSummaryCollector(scaleName string) *SummaryCollector {
	return &SummaryCollector{b: obs.NewBenchSummary(scaleName)}
}

// CellDone records one completed cell. It has the Scale.OnCellDone shape.
func (c *SummaryCollector) CellDone(label string, cfg sim.Config, res *sim.Result) {
	c.AddRun(sim.Summarize(label, cfg, res))
}

// AddRun records an externally assembled run record — e.g. the fleet cell,
// which aggregates many simulations into one record and so never passes
// through CellDone. The same replace-on-repeat rule applies.
func (c *SummaryCollector) AddRun(run obs.RunSummary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev := c.b.Run(run.Name); prev != nil {
		*prev = run
		return
	}
	c.b.Add(run)
}

// Summary returns the collected artifact, sorted by run name so repeated
// sweeps encode byte-identically regardless of worker scheduling.
func (c *SummaryCollector) Summary() *obs.BenchSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.b.Sort()
	return c.b
}

// Len reports how many cells have been collected.
func (c *SummaryCollector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.b.Runs)
}
