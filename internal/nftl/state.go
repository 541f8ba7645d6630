package nftl

import (
	"fmt"

	"flashswl/internal/gc"
	"flashswl/internal/wire"
)

// Checkpoint support: the driver's persistent state — the VBA maps, block
// roles and owners, replacement-block write positions and stored offsets,
// free pool, scan position, spare sequence, and counters — serializes to a
// flat record. Transient fields (forced-set bounds, scratch buffers, hooks,
// the derived watermark) are omitted; checkpoints land only between trace
// events, when no merge or EraseBlockSet is in flight.

// driverStateVersion versions the SaveState record.
const driverStateVersion = 1

// SaveState serializes the driver state for a checkpoint.
func (d *Driver) SaveState() ([]byte, error) {
	w := wire.NewWriter()
	w.U8(driverStateVersion)
	w.U32(uint32(d.nblocks))
	w.U32(uint32(d.ppb))
	w.U32(uint32(len(d.primary)))
	w.I32s(d.primary)
	w.I32s(d.replacement)
	w.I32s(d.owner)
	d.SaveStates(w)
	w.I32s(d.replWrites)
	w.U16s(d.offsets)
	d.SavePool(w)
	w.U32(d.Seq)
	w.I64(d.counters.HostReads)
	w.I64(d.counters.HostWrites)
	w.I64(d.counters.GCRuns)
	w.I64(d.counters.Merges)
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
	return w.Bytes(), nil
}

// RestoreState loads state saved by SaveState into a driver built with the
// same device geometry and configuration. On error the driver is unchanged.
func (d *Driver) RestoreState(data []byte) error {
	r := wire.NewReader(data)
	if v := r.U8(); v != driverStateVersion && r.Err() == nil {
		return fmt.Errorf("nftl: state version %d unsupported", v)
	}
	nblocks := int(r.U32())
	ppb := int(r.U32())
	vblocks := int(r.U32())
	primary := r.I32s()
	replacement := r.I32s()
	owner := r.I32s()
	roles := r.Blob()
	replWrites := r.I32s()
	offsets := r.U16s()
	pool := gc.DecodePool(r)
	seq := r.U32()
	var c Counters
	c.HostReads, c.HostWrites, c.GCRuns = r.I64(), r.I64(), r.I64()
	//lint:ignore swlint/obspair decoding checkpointed counters, not accounting new copies
	c.Merges, c.Erases, c.LiveCopies = r.I64(), r.I64(), r.I64()
	c.ForcedSets, c.ForcedErases, c.ForcedCopies = r.I64(), r.I64(), r.I64()
	c.RetiredBlocks, c.ProgramRetries, c.EraseRetries = r.I64(), r.I64(), r.I64()
	c.ECCCorrected, c.Refreshes = r.I64(), r.I64()
	if err := r.Close(); err != nil {
		return fmt.Errorf("nftl: state: %w", err)
	}
	if nblocks != d.nblocks || ppb != d.ppb || vblocks != len(d.primary) {
		return fmt.Errorf("nftl: state shape %d blocks × %d pages, %d virtual does not match driver (%d × %d, %d)",
			nblocks, ppb, vblocks, d.nblocks, d.ppb, len(d.primary))
	}
	if len(primary) != vblocks || len(replacement) != vblocks ||
		len(owner) != nblocks ||
		len(replWrites) != nblocks || len(offsets) != nblocks*ppb {
		return fmt.Errorf("nftl: corrupt state: table sizes do not match shape")
	}
	for _, b := range primary {
		if b != noBlock && (b < 0 || int(b) >= nblocks) {
			return fmt.Errorf("nftl: corrupt state: primary block %d out of range", b)
		}
	}
	for _, b := range replacement {
		if b != noBlock && (b < 0 || int(b) >= nblocks) {
			return fmt.Errorf("nftl: corrupt state: replacement block %d out of range", b)
		}
	}
	for b := 0; b < nblocks; b++ {
		if o := owner[b]; o != noBlock && (o < 0 || int(o) >= vblocks) {
			return fmt.Errorf("nftl: corrupt state: owner %d out of range", o)
		}
		if n := replWrites[b]; n < 0 || int(n) > ppb {
			return fmt.Errorf("nftl: corrupt state: %d replacement writes in block %d", n, b)
		}
	}
	for _, off := range offsets {
		if off != deadOffset && int(off) >= ppb {
			return fmt.Errorf("nftl: corrupt state: stored offset %d", off)
		}
	}
	if err := d.InstallPool(roles, pool); err != nil {
		return err
	}
	d.primary, d.replacement, d.owner = primary, replacement, owner
	d.replWrites, d.offsets, d.Seq = replWrites, offsets, seq
	d.counters = c
	return nil
}
