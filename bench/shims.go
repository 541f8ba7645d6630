package main

import (
	"fmt"

	"flashswl/internal/blockdev"
	"flashswl/internal/core"
	"flashswl/internal/dftl"
	"flashswl/internal/ftl"
	"flashswl/internal/mtd"
	"flashswl/internal/nand"
	"flashswl/internal/nftl"
	"flashswl/internal/obs"
	"flashswl/internal/trace"
)

// The shims sit at the interface boundaries the stack already has and time
// the calls that cross them. mtd has no such boundary (the drivers take the
// concrete *mtd.Driver), so its time stays inside the driver's self time.

// sourceShim times trace.Source.Next (the workload generator).
type sourceShim struct {
	t     *tracer
	inner trace.Source
}

func (s *sourceShim) Next() (trace.Event, bool) {
	s.t.begin(spWorkloadNext)
	e, ok := s.inner.Next()
	s.t.end()
	return e, ok
}

// chipShim times the three chip primitives behind mtd.Chip; the cheap state
// queries pass through unspanned.
type chipShim struct {
	t     *tracer
	inner *nand.Chip
}

func (c *chipShim) Geometry() nand.Geometry    { return c.inner.Geometry() }
func (c *chipShim) Endurance() int             { return c.inner.Endurance() }
func (c *chipShim) IsProgrammed(b, p int) bool { return c.inner.IsProgrammed(b, p) }
func (c *chipShim) EraseCount(b int) int       { return c.inner.EraseCount(b) }
func (c *chipShim) ReadPage(b, p int, data, spare []byte) (int, error) {
	c.t.begin(spNandRead)
	n, err := c.inner.ReadPage(b, p, data, spare)
	c.t.end()
	return n, err
}

func (c *chipShim) ProgramPage(b, p int, data, spare []byte) error {
	c.t.begin(spNandProgram)
	err := c.inner.ProgramPage(b, p, data, spare)
	c.t.end()
	return err
}

func (c *chipShim) EraseBlock(b int) error {
	c.t.begin(spNandErase)
	err := c.inner.EraseBlock(b)
	c.t.end()
	c.t.erases++
	return err
}

// driver is what the benchmark needs from a translation layer: the page
// store blockdev drives, the cleaner the leveler drives, and the erase hook.
type driver interface {
	blockdev.PageStore
	core.Cleaner
	SetOnErase(func(block int))
	SetObserver(obs.EventSink)
	SetTracer(*obs.Tracer)
}

// driverCounts is the subset of the three drivers' Counters the per-layer
// metrics use, folded the way sim.Runner.Run folds them.
type driverCounts struct {
	Erases, LiveCopies         int64
	ForcedErases, ForcedCopies int64
	CMTHits, CMTMisses         int64 // dftl only
	TPageWrites                int64 // dftl only
}

// since returns the activity after the earlier reading c0.
func (c driverCounts) since(c0 driverCounts) driverCounts {
	return driverCounts{
		Erases: c.Erases - c0.Erases, LiveCopies: c.LiveCopies - c0.LiveCopies,
		ForcedErases: c.ForcedErases - c0.ForcedErases, ForcedCopies: c.ForcedCopies - c0.ForcedCopies,
		CMTHits: c.CMTHits - c0.CMTHits, CMTMisses: c.CMTMisses - c0.CMTMisses,
		TPageWrites: c.TPageWrites - c0.TPageWrites,
	}
}

// newDriver builds the named driver over dev exactly as sim.NewRunner does
// (internal/sim/sim.go, the switch on cfg.Layer) and returns a reader for
// its counters.
func newDriver(name string, dev *mtd.Driver, logicalPages int) (driver, func() driverCounts, error) {
	switch name {
	case "ftl":
		d, err := ftl.New(dev, ftl.Config{LogicalPages: logicalPages, NoSpare: true})
		if err != nil {
			return nil, nil, err
		}
		return d, func() driverCounts {
			c := d.Counters()
			return driverCounts{Erases: c.Erases, LiveCopies: c.LiveCopies, ForcedErases: c.ForcedErases, ForcedCopies: c.ForcedCopies}
		}, nil
	case "nftl":
		ppb := dev.Info().Geometry.PagesPerBlock
		vblocks := 0
		if logicalPages > 0 {
			vblocks = (logicalPages + ppb - 1) / ppb
		}
		d, err := nftl.New(dev, nftl.Config{VirtualBlocks: vblocks, NoSpare: true})
		if err != nil {
			return nil, nil, err
		}
		return d, func() driverCounts {
			c := d.Counters()
			return driverCounts{Erases: c.Erases, LiveCopies: c.LiveCopies, ForcedErases: c.ForcedErases, ForcedCopies: c.ForcedCopies}
		}, nil
	case "dftl":
		d, err := dftl.New(dev, dftl.Config{LogicalPages: logicalPages, NoSpare: true})
		if err != nil {
			return nil, nil, err
		}
		return d, func() driverCounts {
			c := d.Counters()
			return driverCounts{
				Erases: c.Erases, LiveCopies: c.LiveCopies + c.TPageCopies,
				ForcedErases: c.ForcedErases, ForcedCopies: c.ForcedCopies,
				CMTHits: c.CacheHits, CMTMisses: c.CacheMisses, TPageWrites: c.TPageWrites,
			}
		}, nil
	}
	return nil, nil, fmt.Errorf("unknown driver %q", name)
}

// driverShim times the driver's three entry points. It is the PageStore the
// block device writes through and the Cleaner the leveler calls, so a forced
// recycling nests under core.level. A WritePage during which the chip shim
// saw an erase is a GC write; its duration goes to the GC ring.
type driverShim struct {
	t     *tracer
	inner driver
}

func (d *driverShim) LogicalPages() int { return d.inner.LogicalPages() }

func (d *driverShim) WritePage(lpn int, data []byte) error {
	erases := d.t.erases
	d.t.begin(spDrvWrite)
	err := d.inner.WritePage(lpn, data)
	dur := d.t.end()
	if d.t.erases != erases {
		d.t.gcRing[d.t.gcWrites%gcRingLen] = dur
		d.t.gcWrites++
	}
	return err
}

func (d *driverShim) ReadPage(lpn int, buf []byte) (bool, error) {
	d.t.drvReads++
	d.t.begin(spDrvRead)
	ok, err := d.inner.ReadPage(lpn, buf)
	d.t.end()
	return ok, err
}

func (d *driverShim) EraseBlockSet(findex, k int) error {
	d.t.begin(spDrvEraseBlockSet)
	err := d.inner.EraseBlockSet(findex, k)
	d.t.end()
	return err
}

// levelerShim times the three calls the host makes into core.LevelerModule.
type levelerShim struct {
	t     *tracer
	inner core.LevelerModule
}

func (l *levelerShim) OnErase(block int) {
	l.t.begin(spCoreOnErase)
	l.inner.OnErase(block)
	l.t.end()
}

func (l *levelerShim) NeedsLeveling() bool {
	l.t.begin(spCoreNeedsLeveling)
	need := l.inner.NeedsLeveling()
	l.t.end()
	return need
}

func (l *levelerShim) Level() error {
	l.t.begin(spCoreLevel)
	err := l.inner.Level()
	l.t.end()
	return err
}

// sectorDevice is cache.Backend and serve.Frontend, which are the same three
// methods.
type sectorDevice interface {
	ReadSectors(lba int64, buf []byte) error
	WriteSectors(lba int64, buf []byte) error
	Sectors() int64
}

// sectorShim times a sector device under the given span kinds: cache.Cache
// as the server's Frontend, or blockdev.Device inside a blockdevShim.
type sectorShim struct {
	t           *tracer
	inner       sectorDevice
	read, write spanKind
}

func (s *sectorShim) Sectors() int64 { return s.inner.Sectors() }

func (s *sectorShim) ReadSectors(lba int64, buf []byte) error {
	s.t.begin(s.read)
	err := s.inner.ReadSectors(lba, buf)
	s.t.end()
	return err
}

func (s *sectorShim) WriteSectors(lba int64, buf []byte) error {
	s.t.begin(s.write)
	err := s.inner.WriteSectors(lba, buf)
	s.t.end()
	return err
}

// blockdevShim times blockdev.Device as the cache's Backend (or, uncached,
// as the server's Frontend) and counts the writes that had to read a page
// first and the pages each write programmed.
type blockdevShim struct{ sectorShim }

func (b *blockdevShim) WriteSectors(lba int64, buf []byte) error {
	t := b.t
	reads, pages := t.drvReads, t.agg[spDrvWrite].Calls
	err := b.sectorShim.WriteSectors(lba, buf)
	t.bdevWrites++
	if t.drvReads != reads {
		t.rmwWrites++
	}
	t.pagesWritten += t.agg[spDrvWrite].Calls - pages
	return err
}
