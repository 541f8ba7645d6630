package sim

import (
	"errors"
	"fmt"

	"flashswl/internal/core"
	"flashswl/internal/faultinject"
	"flashswl/internal/mtd"
	"flashswl/internal/nand"
)

// RecoveryConfig describes a power-cut/remount experiment: run a random
// write workload against a full stack (layer + SW Leveler + dual-buffer
// snapshots), cut the power after a fixed number of flash operations, then
// remount from the spare areas and check that nothing acknowledged was lost
// and the leveler resumes from the newest decodable snapshot.
type RecoveryConfig struct {
	// Geometry and Endurance describe the chip.
	Geometry  nand.Geometry
	Endurance int
	// Layer must have a remount path (FTL or NFTL; DFTL has none).
	Layer LayerKind
	// K and T configure the SW Leveler (threshold T must be >= 1).
	K int
	T float64
	// Seed drives both the workload and the fault schedule.
	Seed int64
	// Writes is how many host page writes to attempt.
	Writes int
	// CutAfterOps cuts the power after exactly this many flash operations
	// (0 = never; the run then completes and remounts cleanly).
	CutAfterOps int64
	// SnapshotEvery saves the leveler state every N host writes (0 = no
	// snapshots; the leveler then restarts fresh, which the paper accepts).
	SnapshotEvery int
	// Faults optionally adds transient faults, grown-bad campaigns, or bit
	// flips on top of the power cut. Its PowerCutAfter is overridden by
	// CutAfterOps; its Seed defaults to Seed.
	Faults *faultinject.Config
}

// RecoveryResult reports what the cut destroyed and what survived.
type RecoveryResult struct {
	// Cut reports whether the power cut fired, and CutOps after how many
	// flash operations.
	Cut    bool
	CutOps int64
	// AckedWrites is how many host writes the layer acknowledged before the
	// cut; VerifiedPages how many distinct logical pages read back with
	// acceptable content after remount; LostPages how many did not.
	AckedWrites   int
	VerifiedPages int
	LostPages     int
	// LevelerRestored reports whether a snapshot was decodable after the
	// cut; RestoredSeq is its sequence number and LastSavedSeq the newest
	// sequence whose Save completed before the cut. RestoredSeq may exceed
	// LastSavedSeq when the cut interrupted a Save late enough that the
	// snapshot still landed completely.
	LevelerRestored bool
	RestoredSeq     uint64
	LastSavedSeq    uint64
	// RetiredBlocks counts blocks the remounted layer withdrew from
	// service while rebuilding (unerasable crash debris).
	RetiredBlocks int64
	// Faults is the injector's full activity record.
	Faults faultinject.Stats
}

// snapshotBlocks are the physical blocks the recovery stack reserves for the
// leveler's dual-buffer snapshots.
var snapshotBlocks = []int{0, 1}

// RunPowerCut executes one power-cut/remount experiment.
func RunPowerCut(cfg RecoveryConfig) (*RecoveryResult, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Layer.valid() || layers[cfg.Layer].mount == nil {
		return nil, fmt.Errorf("sim: layer %v has no remount path: %w", cfg.Layer, ErrUnsupported)
	}
	entry := layers[cfg.Layer]
	if cfg.Writes <= 0 {
		return nil, errors.New("sim: recovery run needs a positive write count")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	fcfg := faultinject.Config{}
	if cfg.Faults != nil {
		fcfg = *cfg.Faults
	}
	if fcfg.Seed == 0 {
		fcfg.Seed = seed
	}
	fcfg.PowerCutAfter = cfg.CutAfterOps
	inj := faultinject.New(fcfg)
	chip := nand.New(nand.Config{
		Geometry:  cfg.Geometry,
		Endurance: cfg.Endurance,
		StoreData: true, // recovery is about data, the chip must retain it
		FaultHook: inj.Hook,
	})
	inj.BindChip(chip)
	dev := mtd.New(chip)
	store, err := mtd.NewBlockStore(dev, snapshotBlocks[0], snapshotBlocks[1])
	if err != nil {
		return nil, err
	}

	// Size the logical space so its blocks can pin at most 3/4 of the
	// device, identically for new and mount so they agree on the export.
	params := layerParams{
		logicalPages: cfg.Geometry.Blocks * 3 / 4 / entry.pins * cfg.Geometry.PagesPerBlock,
		reserved:     snapshotBlocks,
		ecc:          true,
	}
	layer, err := entry.new(dev, params)
	if err != nil {
		return nil, err
	}
	leveler, persister, err := recoveryLeveler(layer, store, cfg, seed)
	if err != nil {
		return nil, err
	}

	res := &RecoveryResult{}
	acked := make(map[int]uint64)   // lpn → newest acknowledged version
	attempt := make(map[int]uint64) // lpn → newest attempted version
	pageSize := cfg.Geometry.PageSize
	buf := make([]byte, pageSize)
	rng := core.NewSplitMix64(uint64(seed) * 0x9E3779B97F4A7C15)
	logical := layer.LogicalPages()

	runErr := func() (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				cut, ok := faultinject.AsPowerCut(rec)
				if !ok {
					panic(rec)
				}
				err = cut
			}
		}()
		for w := 0; w < cfg.Writes; w++ {
			lpn := rng.Intn(logical)
			ver := uint64(w + 1)
			fillPage(buf, lpn, ver)
			attempt[lpn] = ver
			if werr := layer.WritePage(lpn, buf); werr != nil {
				if errors.Is(werr, nand.ErrInjected) {
					continue // a persistently faulted write was never acked
				}
				return werr
			}
			acked[lpn] = ver
			res.AckedWrites++
			if w%4 == 3 {
				// Exercise the read path (and any bit-flip schedule).
				if _, rerr := layer.ReadPage(lpn, buf); rerr != nil {
					return rerr
				}
			}
			if leveler.NeedsLeveling() {
				if lerr := leveler.Level(); lerr != nil {
					if !errors.Is(lerr, nand.ErrInjected) {
						return lerr
					}
				}
			}
			if cfg.SnapshotEvery > 0 && (w+1)%cfg.SnapshotEvery == 0 {
				// A failed Save tears at most the slot being written; the
				// dual-buffer protocol keeps the other slot decodable.
				if serr := persister.Save(leveler); serr == nil {
					res.LastSavedSeq = persister.Seq()
				} else if !errors.Is(serr, nand.ErrInjected) {
					return serr
				}
			}
		}
		return nil
	}()
	if cut, ok := runErr.(faultinject.PowerCut); ok {
		res.Cut, res.CutOps = true, cut.Ops
	} else if runErr != nil {
		return res, runErr
	}

	// --- Power is back: remount from flash alone and verify. ---
	inj.Disarm() // the remount runs on quiet hardware
	mounted, err := entry.mount(dev, params)
	if err != nil {
		return res, fmt.Errorf("sim: remount after cut: %w", err)
	}
	want := make([]byte, pageSize)
	for lpn, aver := range acked {
		ok, rerr := mounted.ReadPage(lpn, buf)
		if rerr != nil || !ok {
			res.LostPages++
			continue
		}
		// An unacknowledged in-flight write may legitimately win (its
		// program completed right before the cut), so both the newest
		// acknowledged and the newest attempted content are acceptable.
		fillPage(want, lpn, aver)
		if pagesEqual(buf, want) {
			res.VerifiedPages++
			continue
		}
		if iver := attempt[lpn]; iver != aver {
			fillPage(want, lpn, iver)
			if pagesEqual(buf, want) {
				res.VerifiedPages++
				continue
			}
		}
		res.LostPages++
	}
	res.RetiredBlocks = mounted.GCCounters().RetiredBlocks

	// The leveler resumes from the newest decodable snapshot.
	leveler2, persister2, err := recoveryLeveler(mounted, store, cfg, seed)
	if err != nil {
		return res, err
	}
	switch lerr := persister2.Load(leveler2); {
	case lerr == nil:
		res.LevelerRestored = true
		res.RestoredSeq = persister2.Seq()
	case errors.Is(lerr, core.ErrNoSavedState):
		// Acceptable only when no Save ever completed; the caller checks.
	default:
		return res, lerr
	}
	res.Faults = inj.Stats()
	return res, nil
}

// recoveryLeveler builds the SW Leveler + persister pair for one boot of the
// recovery stack.
func recoveryLeveler(layer Layer, store *mtd.BlockStore, cfg RecoveryConfig, seed int64) (*core.Leveler, *core.Persister, error) {
	lv, err := core.NewLeveler(core.Config{
		Blocks:    cfg.Geometry.Blocks,
		K:         cfg.K,
		Threshold: cfg.T,
		Rand:      core.NewSplitMix64(uint64(seed)),
		Exclude:   snapshotBlocks,
	}, layer)
	if err != nil {
		return nil, nil, err
	}
	layer.SetOnErase(lv.OnErase)
	p, err := core.NewPersister(store)
	if err != nil {
		return nil, nil, err
	}
	return lv, p, nil
}

// fillPage writes the deterministic content of version ver of logical page
// lpn: a splitmix64 stream keyed by both, so any torn or misdirected page is
// detected by a byte compare.
func fillPage(buf []byte, lpn int, ver uint64) {
	s := core.NewSplitMix64(uint64(lpn)*0x9E3779B97F4A7C15 + ver)
	for i := 0; i+8 <= len(buf); i += 8 {
		v := s.Uint64()
		buf[i] = byte(v)
		buf[i+1] = byte(v >> 8)
		buf[i+2] = byte(v >> 16)
		buf[i+3] = byte(v >> 24)
		buf[i+4] = byte(v >> 32)
		buf[i+5] = byte(v >> 40)
		buf[i+6] = byte(v >> 48)
		buf[i+7] = byte(v >> 56)
	}
	for i := len(buf) &^ 7; i < len(buf); i++ {
		buf[i] = byte(s.Uint64())
	}
}

func pagesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
