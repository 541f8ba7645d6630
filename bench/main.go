// Command bench is the repository's performance ledger: five workloads over
// the trace-driven simulator and the serving tier, every end-to-end metric
// measured with the benchmark's own tracing off, then a traced pass that
// times the calls into each layer from outside. See README.md.
//
//	go run ./bench                          # all five workloads, both passes
//	go run ./bench -workload serve_cold_rmw -notrace
//	go run ./bench -repeat 3                # spread of every metric against its bound
//	go run ./bench -workload replay_ftl_paper -seed 7 -seconds 10 -trace 0   # the driver's form
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// repDeadline is the watchdog on one repetition; the slowest takes about 4 s.
const repDeadline = 60 * time.Second

// value is a reported metric; Samples counts the latencies behind a percentile.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples,omitempty"`
}

// outcome is everything one workload produced.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Reps      int              `json:"reps"`
	Measured  float64          `json:"measured_s"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	spans     []rawSpan
}

func main() { os.Exit(run()) }

func run() int {
	var (
		filter   = flag.String("workload", "", "comma-separated workloads to run (default all): "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed of the model, the resampler, the leveler and the client RNGs")
		seconds  = flag.Int("seconds", 10, "measured seconds per workload with tracing off")
		trace    = flag.Int("trace", -1, "driver form: run one workload and end with one JSON line, the end-to-end metrics (0) or the per-layer metrics (1)")
		notrace  = flag.Bool("notrace", false, "skip the traced pass")
		jsonPath = flag.String("json", "", "also write every metric (value, unit, samples) with go version, nproc and commit to this file")
		spanPath = flag.String("spans", "", "write the last 65536 raw spans of each traced pass to this file")
		repeat   = flag.Int("repeat", 0, "run the untraced pass this many times and fail if a metric spreads beyond its bound")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *manifest {
		fmt.Println(benchmarkJSON())
		return 0
	}
	selected, err := selectWorkloads(*filter)
	if err == nil && *trace >= 0 && len(selected) != 1 {
		err = fmt.Errorf("-trace runs exactly one workload, got %d", len(selected))
	}
	if err == nil && (*seconds < 1 || *trace > 1 || flag.NArg() > 0) {
		err = fmt.Errorf("bad arguments")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		flag.Usage()
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	if *repeat > 0 {
		return selfCheck(selected, *seed, budget, *repeat)
	}

	traced := !*notrace && *trace != 0
	results := map[string]*outcome{}
	code := 0
	for _, w := range selected {
		out, err := runWorkload(w, *seed, budget, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name(), err)
			return 1
		}
		report(w, *seed, out)
		results[w.name()] = out
		if !out.Correct {
			code = 1
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, *seed, *seconds, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *spanPath != "" {
		if err := writeSpans(*spanPath, selected, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *trace >= 0 {
		fmt.Println(resultLine(results[selected[0].name()], *trace == 1))
	}
	return code
}

func selectWorkloads(filter string) ([]workload, error) {
	if filter == "" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(filter, ",") {
		i := slices.Index(workloadNames(), name)
		if i < 0 {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, workloads[i])
	}
	return out, nil
}

// watchdog aborts the process with the workload's name and a goroutine dump
// if the returned stop function is not called within repDeadline.
func watchdog(name string) (stop func() bool) {
	return time.AfterFunc(repDeadline, func() {
		fmt.Fprintf(os.Stderr, "bench: %s: a repetition exceeded its %v deadline; goroutines:\n", name, repDeadline)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	}).Stop
}

// measure repeats the workload's unit of work with tracing off until budget
// is spent, ending on the repetition that lands nearest to it.
func measure(w workload, seed int64, budget time.Duration) ([]*repResult, error) {
	var reps []*repResult
	var measured time.Duration
	for {
		stop := watchdog(w.name())
		rep, err := w.rep(seed)
		stop()
		if err != nil {
			return nil, err
		}
		if len(reps) > 0 && rep.exact != reps[0].exact {
			return nil, fmt.Errorf("repetition %d differs from the first with the same seed:\n  %+v\n  %+v", len(reps), rep.exact, reps[0].exact)
		}
		reps = append(reps, rep)
		measured += rep.window
		if measured+measured/time.Duration(2*len(reps)) >= budget {
			return reps, nil
		}
	}
}

// summarize folds repetitions into the end-to-end metrics: the median of each
// metric over the repetitions that reported it.
func summarize(reps []*repResult) *outcome {
	out := &outcome{Reps: len(reps), EndToEnd: map[string]value{}}
	var setups []float64
	for _, r := range reps {
		out.Attempted += r.attempted
		out.Failed += r.failed
		out.Measured += r.window.Seconds()
		for _, s := range r.setups {
			setups = append(setups, s.Seconds())
		}
	}
	out.Correct = out.Failed == 0
	out.EndToEnd["setup_s"] = value{Value: median(setups), Unit: "s"}
	for _, m := range endToEnd {
		var vals []float64
		var samples int64
		for _, r := range reps {
			if v, ok := r.metrics[m.Name]; ok && finite(v) {
				vals = append(vals, v)
				samples += r.samples[m.Name]
			}
		}
		if len(vals) > 0 {
			out.EndToEnd[m.Name] = value{median(vals), m.Unit, samples}
		}
	}
	out.EndToEnd["failed_op_share"] = value{Value: float64(out.Failed) / float64(out.Attempted), Unit: "fraction"}
	return out
}

func runWorkload(w workload, seed int64, budget time.Duration, traced bool) (*outcome, error) {
	reps, err := measure(w, seed, budget)
	if err != nil {
		return nil, err
	}
	out := summarize(reps)
	if !traced {
		return out, nil
	}
	stop := watchdog(w.name())
	tr, err := w.traced(seed, reps[0])
	stop()
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	untraced := 1e9 / out.EndToEnd["ops_per_s"].Value
	tr.metrics["trace.overhead_pct"] = 100 * (tr.nsPerOp - untraced) / untraced
	out.PerLayer = map[string]value{}
	for _, m := range perLayer() {
		if v, ok := tr.metrics[m.Name]; ok && finite(v) {
			out.PerLayer[m.Name] = value{v, m.Unit, tr.samples[m.Name]}
		}
	}
	out.spans = tr.spans
	return out, nil
}

func report(w workload, seed int64, out *outcome) {
	fmt.Printf("== %s  seed %d, %d repetitions, %.2f s measured, %d operations attempted, %d failed, correct=%v\n",
		w.name(), seed, out.Reps, out.Measured, out.Attempted, out.Failed, out.Correct)
	fmt.Printf("   %s\n", w.why())
	fmt.Println("   end-to-end, tracing off (median over repetitions; n = latency samples)")
	printMetrics(endToEnd, out.EndToEnd, int64(out.Reps))
	if out.PerLayer == nil {
		return
	}
	fmt.Println("   per layer, one traced repetition (mtd has no boundary to shim: its time is inside the driver's self time)")
	printMetrics(perLayer(), out.PerLayer, 1)
}

// printMetrics prints the metrics vals has, in table order. A latency
// percentile is computed per repetition, so that is where its samples are
// checked against the ten-beyond rule.
func printMetrics(defs []metric, vals map[string]value, reps int64) {
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("     %-36s %14.6g %s", m.Name, v.Value, v.Unit)
		if n := v.Samples / reps; n > 0 {
			line += fmt.Sprintf("  n=%d, %d per repetition: at least 10 samples beyond up to p%g", v.Samples, n, 100*highestPercentile(n))
		}
		fmt.Println(line)
	}
}

// resultLine is the one JSON object the driver reads: the metrics
// BENCHMARK.json declares for the pass, every one of them, a metric the
// workload does not have as 0.
func resultLine(out *outcome, perLayerPass bool) string {
	type line struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	l := line{out.Correct, out.Attempted, out.Failed, map[string]value{}}
	defs := contractEndToEnd()
	if perLayerPass {
		defs = contractPerLayer()
	}
	for _, m := range defs {
		v, ok := out.PerLayer[m.Name]
		if !ok {
			v = out.EndToEnd[m.Name]
		}
		l.Metrics[m.Name] = value{Value: v.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(l)
	if err != nil {
		panic(err) // values are finite by construction
	}
	return string(data)
}

func writeJSON(path string, seed int64, seconds int, results map[string]*outcome) error {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	data, err := json.MarshalIndent(struct {
		Go        string              `json:"go"`
		NProc     int                 `json:"nproc"`
		Commit    string              `json:"commit"`
		Seed      int64               `json:"seed"`
		Seconds   int                 `json:"seconds"`
		Workloads map[string]*outcome `json:"workloads"`
	}{runtime.Version(), runtime.NumCPU(), commit, seed, seconds, results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfCheck is -repeat: n untraced runs of every selected workload, each
// metric's median and range, and a failure when the range exceeds the
// metric's bound.
func selfCheck(selected []workload, seed int64, budget time.Duration, n int) int {
	code := 0
	for _, w := range selected {
		runs := map[string][]float64{}
		for i := 0; i < n; i++ {
			out, err := runWorkload(w, seed, budget, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name(), err)
				return 1
			}
			for name, v := range out.EndToEnd {
				runs[name] = append(runs[name], v.Value)
			}
		}
		fmt.Printf("== %s  seed %d, %d runs of %v\n", w.name(), seed, n, budget)
		for _, m := range endToEnd {
			vals := runs[m.Name]
			if len(vals) == 0 {
				continue
			}
			med, lo, hi := median(vals), slices.Min(vals), slices.Max(vals)
			allowed := max(m.Bound*math.Abs(med), m.Floor)
			verdict := "ok"
			if hi-lo > allowed {
				verdict = "SPREAD EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("     %-24s median %12.6g  min %12.6g  max %12.6g  spread %10.4g  allowed %10.4g %-8s %s\n",
				m.Name, med, lo, hi, hi-lo, allowed, m.Unit, verdict)
		}
	}
	return code
}

// benchmarkJSON renders BENCHMARK.json from the tables in metrics.go and
// workloads.go, so the file cannot drift from what the program prints.
func benchmarkJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: 10,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name(), w.why()})
	}
	for _, m := range contractEndToEnd() {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range contractPerLayer() {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(data)
}
