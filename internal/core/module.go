package core

import (
	"fmt"
	"sort"

	"flashswl/internal/obs"
)

// The leveler module contract and registry. Historically the simulation
// harness reached the SW Leveler and the periodic baseline through type
// switches; the explicit LevelerModule interface makes the contract they
// shared implicit — update, trigger test, procedure, stats, and a versioned
// state codec tagged with a registered kind byte — so rival strategies plug
// into the same harness, checkpoint/resume, and tournament machinery without
// the harness knowing their concrete types.

// LevelerKind identifies a leveler implementation. The byte value is wire
// format: it is the second byte of every ExportState record, and ImportState
// rejects a record whose kind does not match the receiving implementation.
// Values are append-only; never renumber.
type LevelerKind uint8

const (
	// KindSW is the paper's SW Leveler (Leveler).
	KindSW LevelerKind = 0
	// KindPeriodic is the TrueFFS-style periodic baseline (PeriodicLeveler).
	KindPeriodic LevelerKind = 1
	// KindDualPool is the hot/cold dual-pool leveler (DualPoolLeveler).
	KindDualPool LevelerKind = 2
	// KindSAWL is the self-adaptive threshold wrapper (SAWLLeveler).
	KindSAWL LevelerKind = 3
	// KindGap is the max-min erase-gap trigger (GapLeveler).
	KindGap LevelerKind = 4
	// KindGlobal is the cross-chip global leveler (GlobalLeveler).
	KindGlobal LevelerKind = 5
)

// String names the kind.
func (k LevelerKind) String() string {
	switch k {
	case KindSW:
		return "swl"
	case KindPeriodic:
		return "periodic"
	case KindDualPool:
		return "dualpool"
	case KindSAWL:
		return "sawl"
	case KindGap:
		return "gap"
	case KindGlobal:
		return "global"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// LevelerModule is the full contract a wear-leveling strategy offers the
// hosting system:
//
//   - OnErase must be invoked for every block erase, including erases the
//     module itself causes through the Cleaner;
//   - NeedsLeveling is the cheap trigger test and Level the (idempotent
//     under reentrancy) leveling procedure;
//   - Stats reports the shared activity counters;
//   - ExportState/ImportState serialize the complete dynamic state for
//     checkpoint/resume, as a record whose second byte is the module's Kind.
//
// Modules are confined to one goroutine, deterministic given their seed, and
// allocation-free on the OnErase/NeedsLeveling/Level path when no observer is
// attached.
type LevelerModule interface {
	OnErase(bindex int)
	NeedsLeveling() bool
	Level() error
	Stats() Stats
	Kind() LevelerKind
	ExportState() []byte
	ImportState(data []byte) error
}

// StateKind reports which implementation produced an exported state record,
// without decoding the rest of it.
func StateKind(data []byte) (LevelerKind, error) {
	if len(data) < 2 {
		return 0, fmt.Errorf("core: leveler state record too short (%d bytes)", len(data))
	}
	if data[0] != levelerStateVersion {
		return 0, fmt.Errorf("core: leveler state version %d unsupported", data[0])
	}
	return LevelerKind(data[1]), nil
}

// BuildConfig is the strategy-independent parameter set a registry factory
// builds a module from; the strategies without a config of their own take it
// directly. Knobs a strategy has no use for are ignored (Period outside the
// periodic baseline, Select outside the SW Leveler and its SAWL wrapper).
type BuildConfig struct {
	// Blocks and K shape the device view, as for Config.
	Blocks int
	K      int
	// Threshold is the strategy's triggering knob: the unevenness level T
	// for the SW Leveler and the SAWL wrapper's starting point, the
	// max-min erase-count gap for the dual-pool and gap strategies.
	Threshold float64
	// Period is the erase count between the periodic baseline's forced
	// recycles; the periodic strategy requires it to be at least 1.
	Period int64
	// Select picks the SW Leveler's block-set selection policy.
	Select SelectPolicy
	// Exclude lists blocks outside wear leveling's reach. Strategies that
	// cannot honor exclusions reject a non-empty list.
	Exclude []int
	// Rand seeds strategies that use randomness; nil falls back to each
	// strategy's fixed-seed private generator.
	Rand *SplitMix64
	// Chips is the member-chip count of the hosting device, for strategies
	// aware of multi-chip layout (the global leveler). Zero or one means a
	// single chip.
	Chips int
	// Interleave reports that the hosting array stripes global block b onto
	// chip b%Chips rather than concatenating contiguous runs.
	Interleave bool
	// Observer receives the strategy's leveling events and episode
	// begin/end pairs; nil for zero overhead.
	Observer obs.EventSink
	// Tracer records the strategy's causal spans: one swl_episode per acting
	// invocation with a set_select per forced recycling beneath it. Nil for
	// zero overhead.
	Tracer *obs.Tracer
}

// LevelerSpec describes one registered strategy.
type LevelerSpec struct {
	// Name is the registry key, used by sim.Config.Leveler and the
	// -leveler CLI flags.
	Name string
	// Kind is the strategy's state-record kind byte.
	Kind LevelerKind
	// Doc is a one-line description for CLI listings.
	Doc string
	// Build constructs a module bound to a cleaner.
	Build func(cfg BuildConfig, cleaner Cleaner) (LevelerModule, error)
}

var levelerRegistry = map[string]LevelerSpec{}

// RegisterLeveler adds a strategy to the registry. Name and kind collisions
// panic: the registry is assembled from package init functions, and a
// collision is a programming error.
func RegisterLeveler(spec LevelerSpec) {
	if spec.Name == "" || spec.Build == nil {
		panic("core: leveler spec needs a name and a builder")
	}
	if _, dup := levelerRegistry[spec.Name]; dup {
		panic(fmt.Sprintf("core: leveler %q registered twice", spec.Name))
	}
	for _, other := range levelerRegistry {
		if other.Kind == spec.Kind {
			panic(fmt.Sprintf("core: leveler kind %d claimed by both %q and %q",
				spec.Kind, other.Name, spec.Name))
		}
	}
	levelerRegistry[spec.Name] = spec
}

// LevelerNames returns the registered strategy names, sorted.
func LevelerNames() []string {
	names := make([]string, 0, len(levelerRegistry))
	for name := range levelerRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LevelerSpecs returns the registered specs, sorted by name.
func LevelerSpecs() []LevelerSpec {
	specs := make([]LevelerSpec, 0, len(levelerRegistry))
	for _, name := range LevelerNames() {
		specs = append(specs, levelerRegistry[name])
	}
	return specs
}

// NewLevelerByName builds the named strategy, or an error listing the
// registered names when it is unknown.
func NewLevelerByName(name string, cfg BuildConfig, cleaner Cleaner) (LevelerModule, error) {
	spec, ok := levelerRegistry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown leveler %q (registered: %v)", name, LevelerNames())
	}
	return spec.Build(cfg, cleaner)
}

func init() {
	RegisterLeveler(LevelerSpec{
		Name: "swl", Kind: KindSW,
		Doc: "the paper's SW Leveler: BET + unevenness threshold T",
		Build: func(cfg BuildConfig, cleaner Cleaner) (LevelerModule, error) {
			return NewLeveler(Config{
				Blocks: cfg.Blocks, K: cfg.K, Threshold: cfg.Threshold,
				Rand: cfg.Rand, Select: cfg.Select, Exclude: cfg.Exclude,
				Observer: cfg.Observer, Tracer: cfg.Tracer,
			}, cleaner)
		},
	})
	RegisterLeveler(LevelerSpec{
		Name: "periodic", Kind: KindPeriodic,
		Doc: "TrueFFS-style baseline: force-recycle one random set every Period erases",
		Build: func(cfg BuildConfig, cleaner Cleaner) (LevelerModule, error) {
			if len(cfg.Exclude) > 0 {
				return nil, fmt.Errorf("core: the periodic baseline does not support exclusions")
			}
			return NewPeriodicLeveler(PeriodicConfig{
				Blocks: cfg.Blocks, K: cfg.K, Period: cfg.Period, Rand: cfg.Rand,
				Observer: cfg.Observer, Tracer: cfg.Tracer,
			}, cleaner)
		},
	})
	RegisterLeveler(LevelerSpec{
		Name: "dualpool", Kind: KindDualPool,
		Doc: "dual-pool hot/cold swap: rest the hottest block, recirculate the coldest",
		Build: func(cfg BuildConfig, cleaner Cleaner) (LevelerModule, error) {
			return NewDualPoolLeveler(cfg, cleaner)
		},
	})
	RegisterLeveler(LevelerSpec{
		Name: "sawl", Kind: KindSAWL,
		Doc: "SAWL-style self-adaptive threshold over the SW Leveler",
		Build: func(cfg BuildConfig, cleaner Cleaner) (LevelerModule, error) {
			return NewSAWLLeveler(cfg, cleaner)
		},
	})
	RegisterLeveler(LevelerSpec{
		Name: "global", Kind: KindGlobal,
		Doc: "cross-chip leveler: recycle cold sets on the coldest bank when the per-bank mean erase gap exceeds T",
		Build: func(cfg BuildConfig, cleaner Cleaner) (LevelerModule, error) {
			return NewGlobalLeveler(cfg, cleaner)
		},
	})
	RegisterLeveler(LevelerSpec{
		Name: "gap", Kind: KindGap,
		Doc: "max-min erase-gap trigger: recycle the coldest set when the gap exceeds T",
		Build: func(cfg BuildConfig, cleaner Cleaner) (LevelerModule, error) {
			return NewGapLeveler(cfg, cleaner)
		},
	})
}
