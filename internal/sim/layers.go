package sim

import (
	"errors"
	"fmt"
	"strings"

	"flashswl/internal/core"
	"flashswl/internal/dftl"
	"flashswl/internal/ftl"
	"flashswl/internal/gc"
	"flashswl/internal/mtd"
	"flashswl/internal/nftl"
	"flashswl/internal/obs"
)

// ErrUnsupported marks a feature combination the stack deliberately does not
// implement (docs/architecture.md lists them); test with errors.Is.
var ErrUnsupported = errors.New("unsupported combination")

// Layer is the whole contract between the harness and a Flash Translation
// Layer driver; ftl.Driver, nftl.Driver, and dftl.Driver satisfy it, and
// everything in this package works through it. The layers table below is
// the only code that names the concrete types. See DESIGN.md §5.
type Layer interface {
	WritePage(lpn int, data []byte) error
	ReadPage(lpn int, buf []byte) (bool, error)
	LogicalPages() int
	FreeBlocks() int
	core.Cleaner
	SetOnErase(func(block int))
	SetObserver(obs.EventSink)
	SetTracer(*obs.Tracer)
	SaveState() ([]byte, error)
	RestoreState([]byte) error
	CheckConsistency() error
	// GCCounters reports cleaner activity with every copied page — data or
	// translation — under LiveCopies.
	GCCounters() gc.Counters
}

// LayerKind selects the translation layer implementation.
type LayerKind int

const (
	// FTL is the page-mapping layer.
	FTL LayerKind = iota
	// NFTL is the block-mapping layer.
	NFTL
	// DFTL is the demand-paged page-mapping layer (cached translation
	// pages stored in flash).
	DFTL
)

// layerParams is what a table entry needs to build or mount its driver.
type layerParams struct {
	logicalPages    int // 0 = the driver's default export
	noSpare         bool
	gcFreeFraction  float64
	ftlDualFrontier bool
	dftlCache       int
	reserved        []int
	ecc             bool
}

// layers is the driver table, indexed by LayerKind. mount adopts a device
// that already holds data (power-cut recovery) and is nil for a layer with
// no remount path; pins is how many physical blocks one logical block can
// hold down, which sizes the recovery experiment's export.
var layers = [...]struct {
	name       string
	pins       int
	new, mount func(*mtd.Driver, layerParams) (Layer, error)
}{
	FTL: {name: "FTL", pins: 1,
		new:   func(dev *mtd.Driver, p layerParams) (Layer, error) { return asLayer(ftl.New(dev, p.ftl())) },
		mount: func(dev *mtd.Driver, p layerParams) (Layer, error) { return asLayer(ftl.Mount(dev, p.ftl())) },
	},
	NFTL: {name: "NFTL", pins: 2,
		new:   func(dev *mtd.Driver, p layerParams) (Layer, error) { return asLayer(nftl.New(dev, p.nftl(dev))) },
		mount: func(dev *mtd.Driver, p layerParams) (Layer, error) { return asLayer(nftl.Mount(dev, p.nftl(dev))) },
	},
	DFTL: {name: "DFTL", pins: 1,
		new: func(dev *mtd.Driver, p layerParams) (Layer, error) {
			return asLayer(dftl.New(dev, dftl.Config{
				LogicalPages: p.logicalPages,
				NoSpare:      p.noSpare,
				CachedTPages: p.dftlCache,
				Reserved:     p.reserved,
			}))
		},
	},
}

func (p layerParams) ftl() ftl.Config {
	return ftl.Config{
		LogicalPages:   p.logicalPages,
		NoSpare:        p.noSpare,
		GCFreeFraction: p.gcFreeFraction,
		DualFrontier:   p.ftlDualFrontier,
		Reserved:       p.reserved,
		ECC:            p.ecc,
	}
}

func (p layerParams) nftl(dev *mtd.Driver) nftl.Config {
	ppb := dev.Info().Geometry.PagesPerBlock
	return nftl.Config{
		VirtualBlocks:  (p.logicalPages + ppb - 1) / ppb,
		NoSpare:        p.noSpare,
		GCFreeFraction: p.gcFreeFraction,
		Reserved:       p.reserved,
		ECC:            p.ecc,
	}
}

// asLayer widens a constructor's result, keeping a failed build's nil
// driver from becoming a non-nil Layer.
func asLayer[D Layer](d D, err error) (Layer, error) {
	if err != nil {
		return nil, err
	}
	return d, nil
}

func (k LayerKind) valid() bool { return k >= 0 && int(k) < len(layers) }

// String names the layer.
func (k LayerKind) String() string {
	if !k.valid() {
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
	return layers[k].name
}

// ParseLayer resolves a layer name ("ftl", "nftl", "dftl"; case is ignored)
// to its kind.
func ParseLayer(name string) (LayerKind, error) {
	for k := range layers {
		if strings.EqualFold(name, layers[k].name) {
			return LayerKind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown layer %q", name)
}
