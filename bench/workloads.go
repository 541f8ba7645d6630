package main

import "flashswl/internal/sim"

// workload is one set of inputs the benchmark runs. A repetition is a fixed
// unit of work: the measured window repeats it on a fresh stack until the
// requested seconds are spent and reports the median over repetitions.
type workload interface {
	name() string
	why() string
	// driverName is the translation layer in the stack, which names the
	// driver layer's metrics.
	driverName() string
	// rep runs one repetition with the benchmark's tracing off.
	rep(seed int64) (*repResult, error)
	// traced runs one repetition with a shim at every layer boundary; ref is
	// an untraced repetition with the same seed.
	traced(seed int64, ref *repResult) (*tracedResult, error)
}

// workloads are ISSUE 11's five. The request budgets and the replay
// endurance (replay.go) are the issue's divided by scaleDown = 10.
var workloads = []workload{
	&replayWorkload{
		id:        "replay_ftl_paper",
		reason:    "The paper's experiment (FTL, paper trace at 88% export, endurance 300, T=3): generator, ftl write/GC/pickVictim, nand copy reads and core all carry weight.",
		layer:     sim.FTL,
		driver:    "ftl",
		exportPct: 88,
	},
	&replayWorkload{
		id:        "replay_nftl_paper",
		reason:    "Same trace and device on NFTL: merge-dominated, nftl+nand do most of the work and ftl none, so an FTL-only change leaves it flat and a nand.ReadPage change moves it most.",
		layer:     sim.NFTL,
		driver:    "nftl",
		exportPct: 88,
	},
	&replayWorkload{
		id:        "replay_dftl_uniform",
		reason:    "DFTL under uniform traffic at 70% export: the generator is nearly free, nothing is cold so the leveler all but never acts (SWL's negative control), and the translation cache thrashes.",
		layer:     sim.DFTL,
		driver:    "dftl",
		exportPct: 70,
		uniform:   true,
	},
	&serveWorkload{
		id:         "serve_hot_cached",
		reason:     "2 closed-loop clients, 300k requests of 1-8 sectors, 97% in a 128-page hot region under a 512-line cache: queue round-trip and cache hits do the work, flash little.",
		cachePages: 512,
		requests:   3_000_000 / scaleDown,
		maxSectors: 8,
		hotPages:   128,
		hotPct:     97,
	},
	&serveWorkload{
		id:         "serve_cold_rmw",
		reason:     "2 closed-loop clients, 180k uniform requests of 1-3 sectors, no cache, full device: every write is a blockdev read-modify-write, so blockdev, ftl GC and nand payload copies dominate.",
		requests:   1_800_000 / scaleDown,
		maxSectors: 3,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name()
	}
	return names
}
