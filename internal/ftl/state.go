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
	w.I32s(d.rmap)
	w.I32s(d.valid)
	w.I32s(d.written)
	st := make([]byte, len(d.state))
	for i, s := range d.state {
		st[i] = byte(s)
	}
	w.Blob(st)
	w.I32(int32(d.hostActive))
	w.I32(int32(d.gcActive))
	w.I32s(d.freeQueue)
	w.I32(int32(d.Free))
	w.I32(int32(d.ScanPos))
	w.U32(d.seq)
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
	rmap := r.I32s()
	valid := r.I32s()
	written := r.I32s()
	stateBytes := r.Blob()
	hostActive := int(r.I32())
	gcActive := int(r.I32())
	freeQueue := r.I32s()
	freeCount := int(r.I32())
	scanPos := int(r.I32())
	seq := r.U32()
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
	if len(mapTable) != logical || len(rmap) != nblocks*ppb ||
		len(valid) != nblocks || len(written) != nblocks || len(stateBytes) != nblocks {
		return fmt.Errorf("ftl: corrupt state: table sizes do not match shape")
	}
	npages := nblocks * ppb
	for _, p := range mapTable {
		if p != invalidPPN && (p < 0 || int(p) >= npages) {
			return fmt.Errorf("ftl: corrupt state: mapped page %d out of range", p)
		}
	}
	for _, l := range rmap {
		if l != invalidPPN && (l < 0 || int(l) >= logical) {
			return fmt.Errorf("ftl: corrupt state: reverse-mapped page %d out of range", l)
		}
	}
	state := make([]blockState, nblocks)
	for i, b := range stateBytes {
		if b > uint8(blockReserved) {
			return fmt.Errorf("ftl: corrupt state: block state %d", b)
		}
		state[i] = blockState(b)
	}
	if hostActive < -1 || hostActive >= nblocks || gcActive < -1 || gcActive >= nblocks {
		return fmt.Errorf("ftl: corrupt state: active blocks %d/%d", hostActive, gcActive)
	}
	for _, b := range freeQueue {
		if b < 0 || int(b) >= nblocks {
			return fmt.Errorf("ftl: corrupt state: queued block %d", b)
		}
	}
	if freeCount < 0 || freeCount > nblocks || scanPos < 0 || scanPos >= nblocks {
		return fmt.Errorf("ftl: corrupt state: free count %d / scan position %d", freeCount, scanPos)
	}
	d.mapTable, d.rmap, d.valid, d.written, d.state = mapTable, rmap, valid, written, state
	d.hostActive, d.gcActive = hostActive, gcActive
	d.freeQueue, d.Free, d.ScanPos, d.seq = freeQueue, freeCount, scanPos, seq
	d.counters = c
	return nil
}
