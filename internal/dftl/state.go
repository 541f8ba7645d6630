package dftl

import (
	"fmt"

	"flashswl/internal/wire"
)

// Checkpoint support: the driver's persistent state — the GTD, the shadow
// translation entries, the cache residency set with its clock order and
// per-page dirty/ref bits, block accounting, free pool, scan position, spare
// sequence, and counters — serializes to a flat record. Transient fields
// (forced-set bounds, scratch buffers, hooks, the derived watermark) are
// omitted; checkpoints land only between trace events. Restored cache
// entries alias the shadow slices again (tpage.entries is a view of
// shadowOf(t), never a copy) so mapping updates keep flowing through to the
// authoritative table.

// driverStateVersion versions the SaveState record.
const driverStateVersion = 1

// SaveState serializes the driver state for a checkpoint.
func (d *Driver) SaveState() ([]byte, error) {
	w := wire.NewWriter()
	w.U8(driverStateVersion)
	w.U32(uint32(d.nblocks))
	w.U32(uint32(d.ppb))
	w.U32(uint32(d.cfg.LogicalPages))
	w.U32(uint32(d.ntpages))
	w.U32(uint32(d.perT))
	w.I32s(d.gtd)
	for _, s := range d.shadow {
		w.Bool(s != nil)
		if s != nil {
			w.I32s(s)
		}
	}
	// Cache: the clock list in order, the hand, then one (present, dirty,
	// ref) record per clock slot. The clock may lag the cache (evictOne
	// prunes stale slots lazily), so presence is recorded per slot.
	w.U32(uint32(len(d.clock)))
	for _, t := range d.clock {
		w.U32(uint32(t))
		tp, ok := d.cache[t]
		w.Bool(ok)
		if ok {
			w.Bool(tp.dirty)
			w.Bool(tp.ref)
		}
	}
	w.I32(int32(d.hand))
	d.SaveBlocks(w)
	c := d.Counters() // the record keeps LiveCopies data-only
	w.I64(c.HostReads)
	w.I64(c.HostWrites)
	w.I64(c.GCRuns)
	w.I64(c.Erases)
	w.I64(c.LiveCopies)
	w.I64(c.TPageCopies)
	w.I64(c.ForcedSets)
	w.I64(c.ForcedErases)
	w.I64(c.ForcedCopies)
	w.I64(c.TPageReads)
	w.I64(c.TPageWrites)
	w.I64(c.CacheHits)
	w.I64(c.CacheMisses)
	w.I64(c.RetiredBlocks)
	w.I64(c.ProgramRetries)
	w.I64(c.EraseRetries)
	return w.Bytes(), nil
}

// RestoreState loads state saved by SaveState into a driver built with the
// same device geometry and configuration. On error the driver is unchanged.
func (d *Driver) RestoreState(data []byte) error {
	r := wire.NewReader(data)
	if v := r.U8(); v != driverStateVersion && r.Err() == nil {
		return fmt.Errorf("dftl: state version %d unsupported", v)
	}
	nblocks := int(r.U32())
	ppb := int(r.U32())
	logical := int(r.U32())
	ntpages := int(r.U32())
	perT := int(r.U32())
	if nblocks != d.nblocks || ppb != d.ppb || logical != d.cfg.LogicalPages ||
		ntpages != d.ntpages || perT != d.perT {
		// Shape must be checked before the shadow loop below, whose record
		// count depends on ntpages.
		if r.Err() != nil {
			return fmt.Errorf("dftl: state: %w", r.Err())
		}
		return fmt.Errorf("dftl: state shape (%d blocks × %d pages, %d logical, %d×%d tpages) does not match driver",
			nblocks, ppb, logical, ntpages, perT)
	}
	gtd := r.I32s()
	shadow := make([][]int32, ntpages)
	for t := 0; t < ntpages && r.Err() == nil; t++ {
		if r.Bool() {
			shadow[t] = r.I32s()
		}
	}
	nclock := int(r.U32())
	if r.Err() == nil && nclock > ntpages {
		return fmt.Errorf("dftl: corrupt state: %d clock slots for %d translation pages", nclock, ntpages)
	}
	type cacheRec struct {
		t          int
		present    bool
		dirty, ref bool
	}
	clockRecs := make([]cacheRec, 0, nclock)
	for i := 0; i < nclock && r.Err() == nil; i++ {
		rec := cacheRec{t: int(r.U32())}
		rec.present = r.Bool()
		if rec.present {
			rec.dirty, rec.ref = r.Bool(), r.Bool()
		}
		clockRecs = append(clockRecs, rec)
	}
	hand := int(r.I32())
	blocks := d.DecodeBlocks(r)
	var c Counters
	c.HostReads, c.HostWrites, c.GCRuns, c.Erases = r.I64(), r.I64(), r.I64(), r.I64()
	dataCopies := r.I64()
	c.TPageCopies = r.I64()
	//lint:ignore swlint/obspair decoding checkpointed counters, not accounting new copies
	c.LiveCopies = dataCopies + c.TPageCopies
	c.ForcedSets, c.ForcedErases, c.ForcedCopies = r.I64(), r.I64(), r.I64()
	c.TPageReads, c.TPageWrites = r.I64(), r.I64()
	c.CacheHits, c.CacheMisses = r.I64(), r.I64()
	c.RetiredBlocks, c.ProgramRetries, c.EraseRetries = r.I64(), r.I64(), r.I64()
	if err := r.Close(); err != nil {
		return fmt.Errorf("dftl: state: %w", err)
	}
	npages := nblocks * ppb
	if len(gtd) != ntpages {
		return fmt.Errorf("dftl: corrupt state: table sizes do not match shape")
	}
	for _, p := range gtd {
		if p != invalidPPN && (p < 0 || int(p) >= npages) {
			return fmt.Errorf("dftl: corrupt state: GTD page %d out of range", p)
		}
	}
	for t, s := range shadow {
		if s != nil && len(s) != perT {
			return fmt.Errorf("dftl: corrupt state: shadow page %d has %d entries", t, len(s))
		}
	}
	for _, o := range blocks.Rmap {
		if o == invalidPPN {
			continue
		}
		if o&tTag != 0 {
			if t := int(o &^ tTag); t >= ntpages {
				return fmt.Errorf("dftl: corrupt state: owned translation page %d", t)
			}
		} else if o < 0 || int(o) >= logical {
			return fmt.Errorf("dftl: corrupt state: owned logical page %d", o)
		}
	}
	cache := make(map[int]*tpage, d.cfg.CachedTPages)
	clock := make([]int, 0, len(clockRecs))
	for _, rec := range clockRecs {
		if rec.t < 0 || rec.t >= ntpages {
			return fmt.Errorf("dftl: corrupt state: cached translation page %d", rec.t)
		}
		clock = append(clock, rec.t)
		if !rec.present {
			continue
		}
		if _, dup := cache[rec.t]; dup {
			return fmt.Errorf("dftl: corrupt state: translation page %d cached twice", rec.t)
		}
		cache[rec.t] = &tpage{idx: rec.t, dirty: rec.dirty, ref: rec.ref}
	}
	if len(cache) > d.cfg.CachedTPages {
		return fmt.Errorf("dftl: corrupt state: %d cached pages exceed the %d-page budget",
			len(cache), d.cfg.CachedTPages)
	}
	if hand < 0 || hand > len(clock) {
		return fmt.Errorf("dftl: corrupt state: clock hand %d", hand)
	}
	if err := d.InstallBlocks(blocks); err != nil {
		return err
	}
	d.gtd, d.shadow = gtd, shadow
	// Re-alias the cache onto the restored shadow table; entries must be
	// views of shadowOf(t), never copies, or updates stop reaching it.
	for t, tp := range cache {
		tp.entries = d.shadowOf(t)
	}
	d.cache, d.clock, d.hand = cache, clock, hand
	d.counters = c
	return nil
}
