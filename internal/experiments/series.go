package experiments

import (
	"fmt"
	"strings"

	"flashswl/internal/obs"
	"flashswl/internal/sim"
)

// Wear trajectories: the paper's evaluation reports end-of-run aggregates
// (Table 4, Figures 5–7), but the mechanism it argues for — unevenness held
// below T by periodic leveling — is a property of the path, not the
// endpoint. These runs enable the harness's periodic wear sampler and dump
// each configuration's erase-count distribution over simulated time as one
// CSV per cell, ready for plotting.

// sampleEvery estimates the event period giving `samples` wear samples over
// the aging span, from the workload model's request rates.
func (sc Scale) sampleEvery(samples int) int64 {
	if samples < 1 {
		samples = 1
	}
	rate := sc.Model.WriteRate + sc.Model.ReadRate
	total := rate * sc.aging().Seconds()
	every := int64(total) / int64(samples)
	if every < 1 {
		every = 1
	}
	return every
}

// WearSeriesCSV renders a run's wear trajectory as CSV rows with a header.
func WearSeriesCSV(series []obs.WearSample) string {
	var b strings.Builder
	b.WriteString("events,sim_hours,mean_erase,stddev_erase,min_erase,max_erase,erases,worn_blocks,free_blocks,ecnt,fcnt,unevenness\n")
	for _, s := range series {
		fmt.Fprintf(&b, "%d,%.4f,%.4f,%.4f,%d,%d,%d,%d,%d,%d,%d,%.4f\n",
			s.Events, s.SimTime.Hours(), s.MeanErase, s.StdDevErase, s.MinErase, s.MaxErase,
			s.Erases, s.WornBlocks, s.FreeBlocks, s.Ecnt, s.Fcnt, s.Unevenness)
	}
	return b.String()
}

// WriteWearSeries runs the wear-trajectory sweep — per layer, a baseline
// plus every (k, T) cell, each for the fixed aging span with the wear sampler
// aiming for roughly `samples` points across it — and writes one CSV per run
// into dir, creating it if needed: wear_<layer>_base.csv and
// wear_<layer>_k<k>_T<T>.csv, the cell labels with a different prefix. It
// returns the written file names (relative to dir) in sweep order. No cell
// branches from a warm-up: the samples taken during the prefix are not
// checkpoint state.
func WriteWearSeries(dir string, sc Scale, layers []sim.LayerKind, ks []int, ts []float64, samples int) ([]string, error) {
	var cells []cell
	for _, layer := range layers {
		lc, _ := sc.gridCells("series", layer, ks, ts, nil, func(cfg *sim.Config) {
			sc.aged(cfg)
			cfg.SampleEvery = sc.sampleEvery(samples)
		})
		cells = append(cells, lc...)
	}
	res, err := sc.runCells(cells)
	if err != nil {
		return nil, err
	}
	files := make([]artifact, len(res))
	for i, r := range res {
		name := "wear_" + strings.ReplaceAll(strings.TrimPrefix(cells[i].label, "series/"), "/", "_") + ".csv"
		files[i] = textArtifact(name, WearSeriesCSV(r.Series))
	}
	return writeArtifacts(dir, files)
}
