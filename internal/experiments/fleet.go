package experiments

import (
	"fmt"
	"sort"

	"flashswl/internal/fleet"
	"flashswl/internal/obs"
	"flashswl/internal/sim"
	"flashswl/internal/trace"
)

// The fleet experiment: the paper's endurance claim at population scale.
// Instead of one device run to first failure, N independent devices — each
// with its own trace resampled from the scale's workload model — run to
// first failure, and the artifact is the fleet's first-failure CDF plus one
// aggregate BENCH record. Deterministic for a fixed scale, spec, and seed
// regardless of worker count (see internal/fleet).

// FleetSpec parameterizes the fleet experiment beyond the scale.
type FleetSpec struct {
	// Devices is the fleet size; Workers bounds concurrency (0 = NumCPU).
	Devices int
	Workers int
	// Layer, Leveler, K, and PaperT pick each device's stack; the zero
	// Leveler means the registry default (the paper's SW Leveler).
	Layer   sim.LayerKind
	Leveler string
	K       int
	PaperT  float64
	// ArrayChips/ArrayStripe build every device as a chip array (see
	// sim.Config); 0 chips means a single chip.
	ArrayChips  int
	ArrayStripe bool
	// SampleEvery forwards to the per-device config (live monitoring).
	SampleEvery int64
	// Checkpoint and hook plumbing forwards to fleet.Config.
	CheckpointPath  string
	CheckpointEvery int
	OnDeviceDone    func(fleet.DeviceResult)
	OnDeviceSample  func(dev int, s obs.WearSample)
}

// DefaultFleetSpec is the standard fleet cell: FTL devices with the paper's
// SW Leveler at k=0, T=100, run to first failure.
func DefaultFleetSpec(devices int) FleetSpec {
	return FleetSpec{Devices: devices, Layer: sim.FTL, K: 0, PaperT: 100}
}

// FleetOutcome is a finished fleet experiment.
type FleetOutcome struct {
	Scale Scale
	Spec  FleetSpec
	Res   *fleet.Result
}

// fleetLabel names the fleet cell for summaries and diffs.
func fleetLabel(spec FleetSpec) string {
	return fmt.Sprintf("fleet/%s/d%d", spec.Layer, spec.Devices)
}

// RunFleet runs the fleet experiment on sc. Every device runs to first
// failure (or the scale's event bound) over its own resampled trace.
func RunFleet(sc Scale, spec FleetSpec) (*FleetOutcome, error) {
	template := sc.config(spec.Layer, true, spec.K, spec.PaperT)
	toFailure(&template)
	template.Leveler = spec.Leveler
	template.ArrayChips = spec.ArrayChips
	template.ArrayStripe = spec.ArrayStripe
	template.SampleEvery = spec.SampleEvery
	model := sc.Model
	res, err := fleet.Run(fleet.Config{
		Devices:         spec.Devices,
		Workers:         spec.Workers,
		Template:        template,
		Seed:            sc.Seed,
		Source:          func(dev int, seed int64) trace.Source { return model.Infinite(seed) },
		OnDeviceDone:    spec.OnDeviceDone,
		OnDeviceSample:  spec.OnDeviceSample,
		CheckpointPath:  spec.CheckpointPath,
		CheckpointEvery: spec.CheckpointEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: fleet: %w", err)
	}
	for i := range res.Devices {
		if res.Devices[i].Err != "" {
			return nil, fmt.Errorf("experiments: fleet device %d failed: %s", i, res.Devices[i].Err)
		}
	}
	return &FleetOutcome{Scale: sc, Spec: spec, Res: res}, nil
}

// Summary folds the fleet into one BENCH run record under the fleet label:
// work counters are fleet totals, the first-failure time is the fleet
// median, and the erase-distribution columns average the per-device values
// (so the record diffs against other fleet runs of the same shape).
func (o *FleetOutcome) Summary() obs.RunSummary {
	spec, res := o.Spec, o.Res
	cfg := o.Scale.config(spec.Layer, true, spec.K, spec.PaperT)
	s := obs.RunSummary{
		Name:    fleetLabel(spec),
		Layer:   spec.Layer.String(),
		SWL:     true,
		Leveler: spec.Leveler,
		K:       spec.K,
		T:       cfg.T,
		Seed:    o.Scale.Seed,

		FirstWearHours: -1,
		MinErase:       int(^uint(0) >> 1),
	}
	if s.Leveler == "" {
		s.Leveler = cfg.LevelerName()
	}
	var failures []float64
	var meanSum, devSum, simHours float64
	for i := range res.Devices {
		d := &res.Devices[i]
		s.Events += d.Events
		s.PageWrites += d.PageWrites
		s.PageReads += d.PageReads
		s.Erases += d.Erases
		s.LiveCopies += d.LiveCopies
		s.WornBlocks += d.WornBlocks
		meanSum += d.MeanErase
		devSum += d.StdDevErase
		simHours += d.SimTime.Hours()
		if d.MinErase < s.MinErase {
			s.MinErase = d.MinErase
		}
		if d.MaxErase > s.MaxErase {
			s.MaxErase = d.MaxErase
		}
		if d.FirstWear >= 0 {
			failures = append(failures, d.FirstWear.Hours())
		}
	}
	n := len(res.Devices)
	if n > 0 {
		s.MeanErase = meanSum / float64(n)
		s.StdDevErase = devSum / float64(n)
		s.SimHours = simHours / float64(n)
	} else {
		s.MinErase = 0
	}
	if len(failures) > 0 {
		sort.Float64s(failures)
		s.FirstWearHours = failures[len(failures)/2]
	}
	return s
}

// WriteFleetArtifacts writes the CDF CSV and the aggregate BENCH record into
// dir, returning the file names written (relative to dir).
func WriteFleetArtifacts(dir string, o *FleetOutcome) ([]string, error) {
	b := obs.NewBenchSummary(o.Scale.Name)
	b.Add(o.Summary())
	return writeArtifacts(dir, []artifact{
		textArtifact("fleet_cdf.csv", o.Res.CDFCSV()),
		{"BENCH_fleet.json", b.WriteFile},
	})
}

// FormatFleet renders a terminal overview of the fleet outcome.
func FormatFleet(o *FleetOutcome) string {
	s := o.Summary()
	ffy := "-"
	if s.FirstWearHours >= 0 {
		ffy = fmt.Sprintf("%.4g", s.FirstWearHours/(24*365))
	}
	return fmt.Sprintf(
		"fleet: %d × %s devices (leveler %s, k=%d, T=%g)\n"+
			"  failed            %d / %d\n"+
			"  median first wear %s years\n"+
			"  total erases      %d (worst block at %d erases)\n"+
			"  total live copies %d\n",
		o.Spec.Devices, o.Spec.Layer, s.Leveler, s.K, s.T,
		o.Res.Failed(), len(o.Res.Devices), ffy, s.Erases, s.MaxErase, s.LiveCopies)
}
