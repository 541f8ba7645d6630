package gc

import (
	"fmt"

	"flashswl/internal/wire"
)

// BlockState is the life cycle of a physical block. The pool tells free
// blocks, blocks in service and blocks out of service apart; what the two
// in-service codes mean is the embedding driver's business — a write
// frontier and a closed block under the page-mapping tables, a primary and
// a replacement block under nftl.
type BlockState uint8

const (
	BlockFree BlockState = iota
	BlockActive
	BlockInUse
	BlockReserved // reserved at construction, or retired
)

// Pool is the Allocator's free pool: which blocks are free, and in what
// order they are handed out. Free always equals the number of blocks in the
// free state; it changes only in this file.
type Pool struct {
	State []BlockState
	Free  int // blocks in the free state

	// queue lists the free blocks, oldest first (plus any retired since
	// they were queued). It is a window sliding up ring, which has room for
	// every block twice, so that returning a block never allocates.
	queue, ring []int32
	noSpace     error // what Take returns on an empty pool
}

// newPool builds the pool of an erased device: every block free and queued
// in ascending order, except the reserved ones.
func newPool(name string, nblocks int, reserved []int, noSpace error) (Pool, error) {
	p := Pool{State: make([]BlockState, nblocks), ring: make([]int32, 2*nblocks), noSpace: noSpace}
	for _, b := range reserved {
		if b < 0 || b >= nblocks {
			return Pool{}, fmt.Errorf("%s: reserved block %d out of range", name, b)
		}
		p.State[b] = BlockReserved
	}
	p.queue = p.ring[:0]
	for b, s := range p.State {
		if s == BlockFree {
			p.queue = append(p.queue, int32(b))
		}
	}
	p.Free = len(p.queue)
	return p, nil
}

// FreeBlocks returns the number of free blocks in the pool.
func (p *Pool) FreeBlocks() int { return p.Free }

// Take pops the head of the free queue and puts the block in service in
// state as. The FIFO discipline is the Allocator's dynamic wear leveling:
// freed blocks rejoin at the tail, so allocation rotates through the whole
// free pool instead of re-wearing the most recently freed blocks.
//
//lint:hotpath every block allocation of every driver
func (p *Pool) Take(as BlockState) (int, error) {
	for len(p.queue) > 0 {
		b := int(p.queue[0])
		p.queue = p.queue[1:]
		if p.State[b] != BlockFree {
			continue // retired after being queued
		}
		p.State[b] = as
		p.Free--
		return b, nil
	}
	return 0, p.noSpace
}

// Adopt puts one particular free block in service, out of turn: Mount found
// data in it.
func (p *Pool) Adopt(b int, as BlockState) {
	for i, q := range p.queue {
		if int(q) == b {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			break
		}
	}
	p.State[b] = as
	p.Free--
}

// release returns an erased block to the tail of the queue; a block that
// was free already (a bare erase) keeps its place.
func (p *Pool) release(b int) {
	if p.State[b] == BlockFree {
		return
	}
	if len(p.queue) == cap(p.queue) {
		// The window reached the end of the ring: slide it back down. No
		// block is queued twice, so at least half the ring is then clear.
		p.queue = p.ring[:copy(p.ring, p.queue)]
	}
	p.queue = p.queue[:len(p.queue)+1]
	p.queue[len(p.queue)-1] = int32(b)
	p.State[b] = BlockFree
	p.Free++
}

// retire takes a block out of service for good. A queued block stays in the
// queue; Take skips it.
func (p *Pool) retire(b int) {
	if p.State[b] == BlockFree {
		p.Free--
	}
	p.State[b] = BlockReserved
}

// CheckFree verifies that the free counter equals the number of blocks in
// the free state (the pool's share of a driver's CheckConsistency).
func (c *Cleaner) CheckFree() error {
	free := 0
	for _, s := range c.State {
		if s == BlockFree {
			free++
		}
	}
	if free != c.Free {
		return fmt.Errorf("%s: free counter %d, block states say %d", c.cfg.Name, c.Free, free)
	}
	return nil
}

// SaveStates appends the per-block states to a driver's state record.
func (c *Cleaner) SaveStates(w *wire.Writer) {
	st := make([]byte, len(c.State))
	for i, s := range c.State {
		st[i] = byte(s)
	}
	w.Blob(st)
}

// SavePool appends the free queue, the free count and the victim scan
// position to a driver's state record.
func (c *Cleaner) SavePool(w *wire.Writer) {
	w.I32s(c.queue)
	w.I32(int32(c.Free))
	w.I32(int32(c.ScanPos))
}

// PoolImage is the decoded pool section of a state record, not yet checked
// or installed.
type PoolImage struct {
	queue         []int32
	free, scanPos int
}

// DecodePool reads what SavePool wrote.
func DecodePool(r *wire.Reader) PoolImage {
	return PoolImage{queue: r.I32s(), free: int(r.I32()), scanPos: int(r.I32())}
}

// InstallPool validates the block states SaveStates wrote (the record's raw
// blob) and a decoded pool section against the device, and only then
// replaces the pool with them.
func (c *Cleaner) InstallPool(states []byte, img PoolImage) error {
	if len(states) != c.nblocks {
		return fmt.Errorf("%s: corrupt state: table sizes do not match shape", c.cfg.Name)
	}
	state := make([]BlockState, c.nblocks)
	for i, b := range states {
		if b > uint8(BlockReserved) {
			return fmt.Errorf("%s: corrupt state: block state %d", c.cfg.Name, b)
		}
		state[i] = BlockState(b)
	}
	queued := make([]bool, c.nblocks)
	for _, b := range img.queue {
		if b < 0 || int(b) >= c.nblocks || queued[b] {
			return fmt.Errorf("%s: corrupt state: queued block %d", c.cfg.Name, b)
		}
		queued[b] = true
	}
	if img.free < 0 || img.free > c.nblocks || img.scanPos < 0 || img.scanPos >= c.nblocks {
		return fmt.Errorf("%s: corrupt state: free count %d / scan position %d", c.cfg.Name, img.free, img.scanPos)
	}
	c.State, c.Free, c.ScanPos = state, img.free, img.scanPos
	c.queue = c.ring[:copy(c.ring, img.queue)]
	return nil
}
