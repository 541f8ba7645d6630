package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// BENCH summary artifact: a machine-readable end-of-run record every front
// end emits (swlsim, experiments) and cmd/swlstat diffs across runs. The
// schema is versioned so old artifacts stay decodable as fields accrue.

// BenchSummarySchema identifies the artifact format. v2 added the optional
// per-run stage_latency section (causal-span stage timings); v1 artifacts
// differ only by its absence, so the decoder accepts both.
const BenchSummarySchema = "flashswl/bench-summary/v2"

// benchSummarySchemaV1 is the previous format, still accepted on decode so
// checked-in baselines stay diffable.
const benchSummarySchemaV1 = "flashswl/bench-summary/v1"

// RunSummary is one run's headline numbers: the configuration, the paper's
// endurance metrics (first failure, erase distribution), and the overhead
// counters behind Figures 6–7. FirstWearHours is -1 when no block wore out.
type RunSummary struct {
	// Name keys the run for diffing (e.g. "fig5/FTL/k0_T100").
	Name  string `json:"name"`
	Layer string `json:"layer"`
	SWL   bool   `json:"swl"`
	// Leveler names the wear-leveling strategy ("swl", "periodic",
	// "dualpool", ...); empty in pre-arena artifacts and baseline runs.
	Leveler string  `json:"leveler,omitempty"`
	K       int     `json:"k"`
	T       float64 `json:"t"`
	Seed    int64   `json:"seed"`

	Events     int64   `json:"events"`
	PageWrites int64   `json:"page_writes"`
	PageReads  int64   `json:"page_reads"`
	SimHours   float64 `json:"sim_hours"`

	FirstWearHours float64 `json:"first_wear_hours"`
	WornBlocks     int     `json:"worn_blocks"`

	Erases       int64 `json:"erases"`
	ForcedErases int64 `json:"forced_erases"`
	LiveCopies   int64 `json:"live_copies"`
	ForcedCopies int64 `json:"forced_copies"`
	GCRuns       int64 `json:"gc_runs"`

	MeanErase   float64 `json:"mean_erase"`
	StdDevErase float64 `json:"stddev_erase"`
	MinErase    int     `json:"min_erase"`
	MaxErase    int     `json:"max_erase"`

	RetiredBlocks int64 `json:"retired_blocks"`
	Episodes      int64 `json:"episodes"`

	// WallSeconds is the host-measured wall time, when the front end can
	// attribute one to the run. It never participates in regression diffs.
	WallSeconds float64 `json:"wall_seconds,omitempty"`

	// StageLatency is the causal tracer's per-stage duration summary (keyed
	// by span kind name — host_write, translate, gc_merge, ...), present
	// since schema v2 when the run traced spans. Counts are exact for
	// recorded spans; durations are logical ticks unless the run used a
	// wall trace clock.
	StageLatency map[string]StageLatency `json:"stage_latency,omitempty"`
}

// BenchSummary is the BENCH_summary.json artifact: a set of named runs from
// one invocation of a front end.
type BenchSummary struct {
	Schema string       `json:"schema"`
	Scale  string       `json:"scale,omitempty"`
	Runs   []RunSummary `json:"runs"`
}

// NewBenchSummary returns an empty artifact for the given scale label.
func NewBenchSummary(scale string) *BenchSummary {
	return &BenchSummary{Schema: BenchSummarySchema, Scale: scale}
}

// Add appends runs to the artifact.
func (b *BenchSummary) Add(runs ...RunSummary) { b.Runs = append(b.Runs, runs...) }

// Run returns the named run, or nil.
func (b *BenchSummary) Run(name string) *RunSummary {
	for i := range b.Runs {
		if b.Runs[i].Name == name {
			return &b.Runs[i]
		}
	}
	return nil
}

// Sort orders runs by name so artifacts are byte-stable across parallel
// sweeps.
func (b *BenchSummary) Sort() {
	sort.Slice(b.Runs, func(i, j int) bool { return b.Runs[i].Name < b.Runs[j].Name })
}

// Encode writes the artifact as indented JSON.
func (b *BenchSummary) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// WriteFile writes the artifact to path, replacing any file there.
func (b *BenchSummary) WriteFile(path string) error {
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// DecodeBenchSummary reads one artifact, rejecting unknown schemas.
func DecodeBenchSummary(r io.Reader) (*BenchSummary, error) {
	var b BenchSummary
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("obs: decoding bench summary: %w", err)
	}
	if b.Schema != BenchSummarySchema && b.Schema != benchSummarySchemaV1 {
		return nil, fmt.Errorf("obs: bench summary schema %q, want %q (or %q)", b.Schema, BenchSummarySchema, benchSummarySchemaV1)
	}
	return &b, nil
}

// SummaryFromJSONL reconstructs a single-run artifact from a JSONL
// observability stream (swlsim -metrics output): the final wear sample
// supplies the distribution and progress numbers, the earliest sample with a
// worn block approximates the first failure time (to one sampling interval),
// and the final metrics snapshot supplies the overhead counters. Streams
// without samples or metrics yield whatever subset was present.
func SummaryFromJSONL(r io.Reader, name string) (*BenchSummary, error) {
	b := NewBenchSummary("jsonl")
	run := RunSummary{Name: name, FirstWearHours: -1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var probe struct {
		Type string `json:"type"`
	}
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		n++
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("obs: jsonl line %d: %w", n, err)
		}
		switch probe.Type {
		case "sample":
			var rec SampleRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, fmt.Errorf("obs: jsonl line %d: %w", n, err)
			}
			s := rec.WearSample
			run.Events = s.Events
			run.SimHours = s.SimTime.Hours()
			run.MeanErase, run.StdDevErase = s.MeanErase, s.StdDevErase
			run.MinErase, run.MaxErase = s.MinErase, s.MaxErase
			run.Erases = s.Erases
			run.WornBlocks = s.WornBlocks
			if s.WornBlocks > 0 && run.FirstWearHours < 0 {
				run.FirstWearHours = s.SimTime.Hours()
			}
		case "metrics":
			var rec MetricsRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, fmt.Errorf("obs: jsonl line %d: %w", n, err)
			}
			c := rec.Counters
			run.Erases = c[MetricErases]
			run.ForcedErases = c[MetricForcedErases]
			run.LiveCopies = c[MetricCopiedPages]
			run.RetiredBlocks = c[MetricRetired]
			run.Episodes = c[MetricEpisodes]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading jsonl: %w", err)
	}
	if n == 0 {
		return nil, fmt.Errorf("obs: empty jsonl stream")
	}
	b.Add(run)
	return b, nil
}
