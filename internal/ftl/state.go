package ftl

import (
	"fmt"

	"flashswl/internal/wire"
)

// Checkpoint support: the driver's persistent state — translation tables,
// block accounting, frontiers, free pool, scan position, spare sequence, and
// counters — serializes to a flat record. Transient fields (forced-set
// bounds, scratch buffers, hooks, the derived watermark) are omitted: a
// checkpoint is only taken between trace events, when no EraseBlockSet or
// program retry is in flight, and hooks are rewired by the resuming harness.

// driverStateVersion versions the SaveState record.
const driverStateVersion = 1

// SaveState serializes the driver state for a checkpoint. It fails when the
// configuration includes on-line hot-data identification, whose sketch state
// has no serialized form.
func (d *Driver) SaveState() ([]byte, error) {
	if d.cfg.HotData != nil {
		return nil, fmt.Errorf("ftl: cannot checkpoint a driver with hot-data identification")
	}
	w := wire.NewWriter()
	w.U8(driverStateVersion)
	w.U32(uint32(d.nblocks))
	w.U32(uint32(d.ppb))
	w.U32(uint32(len(d.mapTable)))
	w.I32s(d.mapTable)
	d.SaveBlocks(w)
	w.I64(d.counters.HostReads)
	w.I64(d.counters.HostWrites)
	w.I64(d.counters.GCRuns)
	w.I64(d.counters.Erases)
	w.I64(d.counters.LiveCopies)
	w.I64(d.counters.ForcedSets)
	w.I64(d.counters.ForcedErases)
	w.I64(d.counters.ForcedCopies)
	w.I64(d.counters.RetiredBlocks)
	w.I64(d.counters.ProgramRetries)
	w.I64(d.counters.EraseRetries)
	w.I64(d.counters.ECCCorrected)
	w.I64(d.counters.Refreshes)
	w.I64(d.counters.Discards)
	return w.Bytes(), nil
}

// RestoreState loads state saved by SaveState into a driver built with the
// same device geometry and configuration. On error the driver is unchanged.
func (d *Driver) RestoreState(data []byte) error {
	r := wire.NewReader(data)
	if v := r.U8(); v != driverStateVersion && r.Err() == nil {
		return fmt.Errorf("ftl: state version %d unsupported", v)
	}
	nblocks := int(r.U32())
	ppb := int(r.U32())
	logical := int(r.U32())
	mapTable := r.I32s()
	blocks := d.DecodeBlocks(r)
	var c Counters
	c.HostReads, c.HostWrites, c.GCRuns = r.I64(), r.I64(), r.I64()
	//lint:ignore swlint/obspair decoding checkpointed counters, not accounting new copies
	c.Erases, c.LiveCopies = r.I64(), r.I64()
	c.ForcedSets, c.ForcedErases, c.ForcedCopies = r.I64(), r.I64(), r.I64()
	c.RetiredBlocks, c.ProgramRetries, c.EraseRetries = r.I64(), r.I64(), r.I64()
	c.ECCCorrected, c.Refreshes, c.Discards = r.I64(), r.I64(), r.I64()
	if err := r.Close(); err != nil {
		return fmt.Errorf("ftl: state: %w", err)
	}
	if nblocks != d.nblocks || ppb != d.ppb || logical != len(d.mapTable) {
		return fmt.Errorf("ftl: state shape %d blocks × %d pages, %d logical does not match driver (%d × %d, %d)",
			nblocks, ppb, logical, d.nblocks, d.ppb, len(d.mapTable))
	}
	if len(mapTable) != logical {
		return fmt.Errorf("ftl: corrupt state: table sizes do not match shape")
	}
	npages := nblocks * ppb
	for _, p := range mapTable {
		if p != invalidPPN && (p < 0 || int(p) >= npages) {
			return fmt.Errorf("ftl: corrupt state: mapped page %d out of range", p)
		}
	}
	for _, l := range blocks.Rmap {
		if l != invalidPPN && (l < 0 || int(l) >= logical) {
			return fmt.Errorf("ftl: corrupt state: reverse-mapped page %d out of range", l)
		}
	}
	if err := d.InstallBlocks(blocks); err != nil {
		return err
	}
	d.mapTable = mapTable
	d.counters = c
	return nil
}
