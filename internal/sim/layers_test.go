package sim

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flashswl/internal/core"
	"flashswl/internal/faultinject"
	"flashswl/internal/mtd"
	"flashswl/internal/nand"
	"flashswl/internal/obs"
)

// Layer conformance suite: every entry of the layers table inherits these
// contract tests — data survives garbage collection and forced recycling,
// EraseBlockSet accepts every block set and rejects bad arguments without
// side effects, state round-trips bit-for-bit into a fresh driver, the
// cleaner counters agree with the erase hook and the event stream, and a
// host write above the watermark does not allocate — so a new driver gets
// the harness's assumptions checked by adding its table row.

const (
	confBlocks  = 32
	confLogical = 128 // pages: 16 of the 30 usable blocks, enough that NFTL's block pairs exhaust the pool
)

func confGeometry() nand.Geometry {
	return nand.Geometry{Blocks: confBlocks, PagesPerBlock: 8, PageSize: 256, SpareSize: 16}
}

// confStack is one driver on its own data-retaining chip, with the erase
// hook and the observer counted and a shadow of what the host wrote.
type confStack struct {
	chip     *nand.Chip
	layer    Layer
	hooked   int64 // erases reported through SetOnErase
	observed int64 // EvBlockErased events
	shadow   map[int]uint64
	ver      uint64
	rng      *core.SplitMix64
	buf      []byte
}

// confParams is the suite's driver configuration: two reserved blocks, and
// a DFTL cache smaller than the 3 translation pages so evictions happen.
func confParams() layerParams {
	return layerParams{logicalPages: confLogical, dftlCache: 2, reserved: []int{0, 1}}
}

func newConfStack(t *testing.T, kind LayerKind, p layerParams) *confStack {
	t.Helper()
	s := &confStack{shadow: map[int]uint64{}, rng: core.NewSplitMix64(7), buf: make([]byte, confGeometry().PageSize)}
	s.chip = nand.New(nand.Config{Geometry: confGeometry(), StoreData: true})
	layer, err := layers[kind].new(mtd.New(s.chip), p)
	if err != nil {
		t.Fatalf("%v: build: %v", kind, err)
	}
	s.layer = layer
	layer.SetOnErase(func(int) { s.hooked++ })
	layer.SetObserver(obs.SinkFunc(func(e obs.Event) {
		if e.Kind == obs.EvBlockErased {
			s.observed++
		}
	}))
	return s
}

// write performs n overwrite-heavy host writes: three in four land in the
// first eighth of the logical space.
func (s *confStack) write(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lpn := s.rng.Intn(confLogical)
		if s.rng.Intn(4) != 0 {
			lpn %= confLogical / 8
		}
		s.ver++
		fillPage(s.buf, lpn, s.ver)
		if err := s.layer.WritePage(lpn, s.buf); err != nil {
			t.Fatalf("write %d of page %d: %v", s.ver, lpn, err)
		}
		s.shadow[lpn] = s.ver
	}
}

// verify reads the whole logical space back against the shadow and checks
// the driver's own consistency and the counter invariants.
func (s *confStack) verify(t *testing.T, phase string) {
	t.Helper()
	want := make([]byte, len(s.buf))
	for lpn := 0; lpn < confLogical; lpn++ {
		ok, err := s.layer.ReadPage(lpn, s.buf)
		if err != nil {
			t.Fatalf("%s: read page %d: %v", phase, lpn, err)
		}
		ver, written := s.shadow[lpn]
		if ok != written {
			t.Fatalf("%s: page %d mapped=%v, written=%v", phase, lpn, ok, written)
		}
		if fillPage(want, lpn, ver); written && !bytes.Equal(s.buf, want) {
			t.Fatalf("%s: page %d does not hold version %d", phase, lpn, ver)
		}
	}
	if err := s.layer.CheckConsistency(); err != nil {
		t.Fatalf("%s: %v", phase, err)
	}
	c := s.layer.GCCounters()
	if c.ForcedErases > c.Erases || c.ForcedCopies > c.LiveCopies {
		t.Errorf("%s: forced work exceeds total: %+v", phase, c)
	}
	if c.Erases != s.hooked || c.Erases != s.observed {
		t.Errorf("%s: %d erases counted, %d through SetOnErase, %d EvBlockErased events",
			phase, c.Erases, s.hooked, s.observed)
	}
}

func (s *confStack) state(t *testing.T) []byte {
	t.Helper()
	st, err := s.layer.SaveState()
	if err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	return st
}

// clone rebuilds the stack on a copy of the chip image: a fresh driver that
// has only RestoreState to learn the mapping from.
func (s *confStack) clone(t *testing.T, kind LayerKind) *confStack {
	t.Helper()
	c := newConfStack(t, kind, confParams())
	var img bytes.Buffer
	if err := s.chip.WriteImage(&img); err != nil {
		t.Fatal(err)
	}
	if err := c.chip.RestoreImage(&img); err != nil {
		t.Fatal(err)
	}
	if err := c.layer.RestoreState(s.state(t)); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	c.hooked, c.observed = s.hooked, s.observed
	c.ver, *c.rng = s.ver, *s.rng
	for lpn, ver := range s.shadow {
		c.shadow[lpn] = ver
	}
	return c
}

func TestLayerConformance(t *testing.T) {
	for k := range layers {
		kind := LayerKind(k)
		t.Run(kind.String(), func(t *testing.T) {
			s := newConfStack(t, kind, confParams())

			s.write(t, 4000)
			if runs := s.layer.GCCounters().GCRuns; runs < 50 {
				t.Fatalf("only %d garbage collections; the workload must force many", runs)
			}
			s.verify(t, "after garbage collection")

			// Every block set under k=0 and k=2 — reserved, free, active
			// and in-use blocks all occur — with host writes in between so
			// the write frontier keeps moving into the sets.
			for _, kk := range []int{0, 2} {
				for findex := 0; findex<<uint(kk) < confBlocks; findex++ {
					if err := s.layer.EraseBlockSet(findex, kk); err != nil {
						t.Fatalf("EraseBlockSet(%d, %d): %v", findex, kk, err)
					}
					s.write(t, 3)
				}
			}
			if c := s.layer.GCCounters(); c.ForcedSets != confBlocks+confBlocks/4 || c.ForcedErases == 0 || c.ForcedCopies == 0 {
				t.Errorf("forced recycling not accounted: %+v", c)
			}
			s.verify(t, "after forced recycling")

			before := s.state(t)
			for _, arg := range [][2]int{{-1, 0}, {0, -1}, {confBlocks, 0}, {confBlocks / 4, 2}} {
				if err := s.layer.EraseBlockSet(arg[0], arg[1]); err == nil {
					t.Errorf("EraseBlockSet(%d, %d) accepted", arg[0], arg[1])
				}
			}
			if !bytes.Equal(before, s.state(t)) {
				t.Error("a rejected EraseBlockSet changed the driver state")
			}

			c := s.clone(t, kind)
			if !bytes.Equal(before, c.state(t)) {
				t.Fatal("restored driver saves different state bytes")
			}
			s.write(t, 2000)
			c.write(t, 2000)
			if !bytes.Equal(s.state(t), c.state(t)) || s.layer.GCCounters() != c.layer.GCCounters() {
				t.Errorf("original and restored drivers diverged:\n%+v\n%+v", s.layer.GCCounters(), c.layer.GCCounters())
			}
			s.verify(t, "original after resume")
			c.verify(t, "restored after resume")
		})
	}
}

var update = flag.Bool("update", false, "rewrite the driver state goldens under testdata/")

// TestLayerStateGolden pins every driver's SaveState record byte for byte.
// The goldens were generated before the block tables, free pool and their
// codec section moved out of the drivers into internal/gc, so a record
// drifting from its file is a wire-format (or allocation-order) change, not
// a refactor. A fresh driver restored from the golden bytes must then
// continue exactly like the one that produced them.
func TestLayerStateGolden(t *testing.T) {
	for k := range layers {
		kind := LayerKind(k)
		t.Run(kind.String(), func(t *testing.T) {
			s := newConfStack(t, kind, confParams())
			s.write(t, 3000)
			for findex := 0; findex<<2 < confBlocks; findex++ {
				if err := s.layer.EraseBlockSet(findex, 2); err != nil {
					t.Fatalf("EraseBlockSet(%d, 2): %v", findex, err)
				}
				s.write(t, 5)
			}
			got := s.state(t)

			path := filepath.Join("testdata", "state_"+strings.ToLower(kind.String())+".hex")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			text, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/sim -run LayerStateGolden -update` to create it)", err)
			}
			want, err := hex.DecodeString(strings.TrimSpace(string(text)))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v state record drifted from %s (%d bytes, golden %d)", kind, path, len(got), len(want))
			}

			c := s.clone(t, kind) // restores s.state, which equals the golden bytes
			s.write(t, 2000)
			c.write(t, 2000)
			if !bytes.Equal(s.state(t), c.state(t)) || s.layer.GCCounters() != c.layer.GCCounters() {
				t.Error("driver restored from the golden diverged from the original")
			}
			c.verify(t, "restored from golden")
		})
	}
}

// TestLayerWriteAboveWatermarkDoesNotAllocate: the fast path of a host
// write — headroom test, translation, one program — stays allocation-free
// in every driver.
func TestLayerWriteAboveWatermarkDoesNotAllocate(t *testing.T) {
	for k := range layers {
		kind := LayerKind(k)
		// No spare writes (the chip allocates to retain them) and a DFTL
		// cache that holds every translation page once the reads below
		// have faulted them in.
		s := newConfStack(t, kind, layerParams{logicalPages: confLogical, noSpare: true, dftlCache: 16})
		for lpn := 0; lpn < confLogical; lpn++ {
			if _, err := s.layer.ReadPage(lpn, nil); err != nil {
				t.Fatal(err)
			}
		}
		lpn := 0
		allocs := testing.AllocsPerRun(64, func() {
			if err := s.layer.WritePage(lpn, nil); err != nil {
				t.Fatal(err)
			}
			lpn++
		})
		if s.layer.GCCounters().GCRuns != 0 {
			t.Fatalf("%v: the probe ran into garbage collection", kind)
		}
		if allocs != 0 {
			t.Errorf("%v: %.1f allocations per host write above the watermark", kind, allocs)
		}
	}
}

func TestLayerNames(t *testing.T) {
	for k := range layers {
		kind := LayerKind(k)
		if got, err := ParseLayer(kind.String()); err != nil || got != kind {
			t.Errorf("ParseLayer(%q) = %v, %v", kind.String(), got, err)
		}
	}
	if got, err := ParseLayer("nftl"); err != nil || got != NFTL {
		t.Errorf(`ParseLayer("nftl") = %v, %v`, got, err)
	}
	if _, err := ParseLayer("zftl"); err == nil {
		t.Error("unknown layer name accepted")
	}
	if got := LayerKind(len(layers)).String(); got == "FTL" || got == "" {
		t.Errorf("unknown kind prints as %q", got)
	}
}

// TestUnsupportedCombinations: the feature-matrix holes the stack admits to
// (docs/architecture.md) all fail with the one typed error.
func TestUnsupportedCombinations(t *testing.T) {
	cases := map[string]func() error{
		"faults on an array": func() error {
			cfg := arrayCfg(FTL, false, 0, false)
			cfg.Faults = &faultinject.Config{Seed: 1, ProgramFailRate: 0.1}
			_, err := NewRunner(cfg)
			return err
		},
		"power cut on a layer with no mount": func() error {
			_, err := RunPowerCut(RecoveryConfig{Geometry: recoveryGeometry(), Layer: DFTL, T: 4, Writes: 10})
			return err
		},
		"checkpoint with a cache": func() error {
			cfg := worstCfg(FTL, false, 0)
			cfg.MaxEvents = 10
			cfg.CachePages = 8
			cfg.CheckpointPath = filepath.Join(t.TempDir(), "x.ckpt")
			_, err := Run(cfg, worstSource())
			return err
		},
	}
	for name, run := range cases {
		if err := run(); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: got %v, want ErrUnsupported", name, err)
		}
	}
}
