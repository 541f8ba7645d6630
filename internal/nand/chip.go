package nand

import (
	"fmt"
	"time"
)

// Timing models the latency of the three NAND primitives. The simulator
// accumulates these into the chip's elapsed device time; it does not sleep.
type Timing struct {
	ReadPage    time.Duration
	ProgramPage time.Duration
	EraseBlock  time.Duration
}

// DefaultTiming returns typical latencies for the cell kind. The erase
// latency of MLC×2 follows the ~1.5 ms figure quoted in the paper (§4.2).
func DefaultTiming(kind CellKind) Timing {
	switch kind {
	case MLC2:
		return Timing{ReadPage: 60 * time.Microsecond, ProgramPage: 800 * time.Microsecond, EraseBlock: 1500 * time.Microsecond}
	default:
		return Timing{ReadPage: 25 * time.Microsecond, ProgramPage: 200 * time.Microsecond, EraseBlock: 1500 * time.Microsecond}
	}
}

// Op identifies a chip primitive, used by fault hooks and statistics.
type Op int

const (
	// OpRead is a page read.
	OpRead Op = iota
	// OpProgram is a page program.
	OpProgram
	// OpErase is a block erase.
	OpErase
)

// String returns the operation name.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpProgram:
		return "program"
	case OpErase:
		return "erase"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Config assembles everything needed to construct a Chip.
type Config struct {
	// Geometry is the physical layout. Required.
	Geometry Geometry
	// Cell selects the cell technology; it provides the default endurance
	// and timing when those fields are zero.
	Cell CellKind
	// Endurance overrides the per-block erase endurance when positive.
	Endurance int
	// Timing overrides the latency model when any field is nonzero.
	Timing Timing
	// StoreData selects whether page user data is retained. Wear-leveling
	// simulations only need metadata; disabling data storage keeps large
	// simulated chips cheap. Spare (OOB) data is always retained.
	StoreData bool
	// FailOnWear makes EraseBlock return ErrWornOut once a block's erase
	// count exceeds its endurance. When false the erase succeeds and the
	// wear event is only reported through OnWear, which matches the
	// paper's methodology of simulating past the first failure (Table 4).
	FailOnWear bool
	// OnWear, if non-nil, is invoked exactly once per block, at the erase
	// that exhausts its endurance.
	OnWear func(block int)
	// FaultHook, if non-nil, runs before every primitive and may return an
	// error to inject a fault. The operation is then abandoned with no
	// state change (and no time accounted).
	FaultHook func(op Op, block, page int) error
	// ObserveHook, if non-nil, runs after every successful primitive, once
	// its state change and statistics are committed — the chip-level tap
	// of the observability layer. Faulted or rejected operations are not
	// reported. The hook runs on the caller's goroutine and must not call
	// back into the chip.
	ObserveHook func(op Op, block, page int)
	// ReadDisturbEvery, when positive on a data-retaining chip, flips one
	// pseudo-random stored bit in a block after every N page reads of
	// that block since its last erase — a simple read-disturb model.
	// Erasing the block heals it, so scrubbing (ECC-corrected relocation)
	// is the defense, as on real NAND.
	ReadDisturbEvery int
	// SequentialProgram enforces the MLC constraint that pages within a
	// block are programmed in strictly increasing order. Log-structured
	// layers (ftl, dftl) satisfy it naturally; NFTL's in-place primary
	// writes do not — the "minor modifications" the paper notes NFTL
	// needs on MLC devices (§5.1).
	SequentialProgram bool
}

// Stats counts chip activity since construction.
type Stats struct {
	Reads    int64
	Programs int64
	Erases   int64
	// Elapsed is the accumulated device busy time under the timing model.
	Elapsed time.Duration
}

type page struct {
	programmed bool
	data       []byte // nil unless StoreData
	spare      []byte // nil until first program
}

type block struct {
	eraseCount int
	worn       bool
	reads      int // page reads since the last erase (read disturb)
	lastProg   int // highest page programmed since the last erase, -1 none
	pages      []page
}

// Chip is a simulated NAND flash chip. It is not safe for concurrent use;
// a Flash Translation Layer driver serializes access to its chip, as real
// firmware does: one goroutine owns the chip at a time. Ownership may pass
// to another goroutine only over a happens-before edge with nobody using
// the chip across it — internal/serve hands a whole stack from caller to
// caller through its mutex; everywhere else a chip stays with the goroutine
// that built it. The same single-owner contract covers the read-side
// accessors (Stats, EraseCount, EraseCounts, WornBlocks): observers that
// sample wear mid-run must do so from the owning goroutine — between
// chip operations every accessor then returns a consistent snapshot.
// Sampling from another goroutine while the chip mutates would tear the
// multi-word Stats struct and race on the per-block counters; run the test
// suite with -race to enforce this (see TestChipSingleGoroutineContract).
type Chip struct {
	cfg    Config
	timing Timing
	end    int
	blocks []block
	erased []byte // one page of 0xFF, what unprogrammed pages read back
	stats  Stats
	worn   int    // number of worn-out blocks
	first  int    // first worn block, -1 if none
	rng    uint64 // deterministic state for read-disturb bit selection
}

// New constructs a chip from the configuration. It panics on an invalid
// geometry, mirroring make()'s behaviour for impossible requests.
func New(cfg Config) *Chip {
	if err := cfg.Geometry.Validate(); err != nil {
		panic(err)
	}
	end := cfg.Endurance
	if end <= 0 {
		end = cfg.Cell.Endurance()
	}
	t := cfg.Timing
	if t == (Timing{}) {
		t = DefaultTiming(cfg.Cell)
	}
	c := &Chip{cfg: cfg, timing: t, end: end, first: -1}
	c.erased = make([]byte, cfg.Geometry.PageSize)
	for i := range c.erased {
		c.erased[i] = 0xFF
	}
	c.blocks = make([]block, cfg.Geometry.Blocks)
	ppb := cfg.Geometry.PagesPerBlock
	pages := make([]page, cfg.Geometry.Blocks*ppb) // one allocation, a window per block
	for i := range c.blocks {
		c.blocks[i].pages = pages[i*ppb : (i+1)*ppb : (i+1)*ppb]
		c.blocks[i].lastProg = -1
	}
	return c
}

// Geometry returns the chip layout.
func (c *Chip) Geometry() Geometry { return c.cfg.Geometry }

// Endurance returns the per-block erase endurance in effect.
func (c *Chip) Endurance() int { return c.end }

// Stats returns a snapshot of the activity counters.
func (c *Chip) Stats() Stats { return c.stats }

// addr validates a block/page address; page < 0 validates only the block.
func (c *Chip) addr(op string, b, p int) error {
	if b < 0 || b >= c.cfg.Geometry.Blocks || p >= c.cfg.Geometry.PagesPerBlock {
		return &AddrError{Op: op, Block: b, Page: p, Err: ErrOutOfRange}
	}
	return nil
}

// ReadPage reads a page's user data into data and its spare area into spare.
// Either destination may be nil to skip it; shorter destinations receive a
// prefix. It returns the number of user-data bytes copied.
func (c *Chip) ReadPage(b, p int, data, spare []byte) (int, error) {
	if err := c.addr("read", b, p); err != nil {
		return 0, err
	}
	if p < 0 {
		return 0, &AddrError{Op: "read", Block: b, Page: p, Err: ErrOutOfRange}
	}
	if c.cfg.FaultHook != nil {
		if err := c.cfg.FaultHook(OpRead, b, p); err != nil {
			return 0, &AddrError{Op: "read", Block: b, Page: p, Err: err}
		}
	}
	c.stats.Reads++
	c.stats.Elapsed += c.timing.ReadPage
	if c.cfg.ReadDisturbEvery > 0 && c.cfg.StoreData {
		blk := &c.blocks[b]
		blk.reads++
		if blk.reads%c.cfg.ReadDisturbEvery == 0 {
			c.disturb(blk)
		}
	}
	pg := &c.blocks[b].pages[p]
	n := 0
	if data != nil {
		if len(pg.data) > 0 {
			n = copy(data, pg.data)
		} else {
			// Unprogrammed (or metadata-only) pages read back erased bytes.
			n = copy(data, c.erased)
		}
	}
	if spare != nil {
		// Bytes beyond what was programmed read back erased (0xFF).
		n := copy(spare, pg.spare)
		for i := n; i < len(spare) && i < c.cfg.Geometry.SpareSize; i++ {
			spare[i] = 0xFF
		}
	}
	if c.cfg.ObserveHook != nil {
		c.cfg.ObserveHook(OpRead, b, p)
	}
	return n, nil
}

// IsProgrammed reports whether the page has been programmed since the last
// erase of its block.
func (c *Chip) IsProgrammed(b, p int) bool {
	if c.addr("query", b, p) != nil || p < 0 {
		return false
	}
	return c.blocks[b].pages[p].programmed
}

// ProgramPage writes user data and spare bytes to an erased page. NAND pages
// are write-once: programming an already-programmed page fails with
// ErrNotErased. Buffers longer than the page or spare capacity fail with
// ErrBadLength. Either buffer may be nil.
func (c *Chip) ProgramPage(b, p int, data, spare []byte) error {
	if err := c.addr("program", b, p); err != nil {
		return err
	}
	if p < 0 {
		return &AddrError{Op: "program", Block: b, Page: p, Err: ErrOutOfRange}
	}
	if len(data) > c.cfg.Geometry.PageSize || len(spare) > c.cfg.Geometry.SpareSize {
		return &AddrError{Op: "program", Block: b, Page: p, Err: ErrBadLength}
	}
	pg := &c.blocks[b].pages[p]
	if pg.programmed {
		return &AddrError{Op: "program", Block: b, Page: p, Err: ErrNotErased}
	}
	if c.cfg.SequentialProgram && p <= c.blocks[b].lastProg {
		return &AddrError{Op: "program", Block: b, Page: p, Err: ErrProgOrder}
	}
	if c.cfg.FaultHook != nil {
		if err := c.cfg.FaultHook(OpProgram, b, p); err != nil {
			return &AddrError{Op: "program", Block: b, Page: p, Err: err}
		}
	}
	c.stats.Programs++
	c.stats.Elapsed += c.timing.ProgramPage
	pg.programmed = true
	if p > c.blocks[b].lastProg {
		c.blocks[b].lastProg = p
	}
	if c.cfg.StoreData && data != nil {
		pg.data = append(pg.data[:0], data...)
	}
	if spare != nil {
		pg.spare = append(pg.spare[:0], spare...)
	}
	if c.cfg.ObserveHook != nil {
		c.cfg.ObserveHook(OpProgram, b, p)
	}
	return nil
}

// EraseBlock erases a whole block, returning every page to the erased state
// and incrementing the block's erase count. The erase that exhausts the
// block's endurance triggers the OnWear callback; with FailOnWear set it
// also fails with ErrWornOut (before changing any state).
func (c *Chip) EraseBlock(b int) error {
	if err := c.addr("erase", b, -1); err != nil {
		return err
	}
	blk := &c.blocks[b]
	if c.cfg.FailOnWear && blk.eraseCount >= c.end {
		return &AddrError{Op: "erase", Block: b, Page: -1, Err: ErrWornOut}
	}
	if c.cfg.FaultHook != nil {
		if err := c.cfg.FaultHook(OpErase, b, -1); err != nil {
			return &AddrError{Op: "erase", Block: b, Page: -1, Err: err}
		}
	}
	c.stats.Erases++
	c.stats.Elapsed += c.timing.EraseBlock
	blk.eraseCount++
	blk.reads = 0
	blk.lastProg = -1
	for i := range blk.pages {
		pg := &blk.pages[i]
		pg.programmed = false
		pg.data = pg.data[:0]
		pg.spare = pg.spare[:0]
	}
	if !blk.worn && blk.eraseCount >= c.end {
		blk.worn = true
		c.worn++
		if c.first < 0 {
			c.first = b
		}
		if c.cfg.OnWear != nil {
			c.cfg.OnWear(b)
		}
	}
	if c.cfg.ObserveHook != nil {
		c.cfg.ObserveHook(OpErase, b, -1)
	}
	return nil
}

// disturb flips one pseudo-random stored bit in one of the block's
// programmed pages (read disturb).
func (c *Chip) disturb(blk *block) {
	// splitmix64 step for a deterministic victim choice.
	c.rng += 0x9E3779B97F4A7C15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	// Pick among programmed pages with stored data.
	var candidates []int
	for i := range blk.pages {
		if blk.pages[i].programmed && len(blk.pages[i].data) > 0 {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return
	}
	pg := &blk.pages[candidates[int(z%uint64(len(candidates)))]]
	bit := int((z >> 16) % uint64(len(pg.data)*8))
	pg.data[bit/8] ^= 1 << uint(bit%8)
}

// FlipBit inverts one stored data bit of a programmed page — simulated bit
// rot (retention loss or read disturb) for exercising error correction.
// It requires a data-retaining chip (StoreData) and a programmed page long
// enough to contain the bit.
func (c *Chip) FlipBit(b, p, bit int) error {
	if err := c.addr("corrupt", b, p); err != nil {
		return err
	}
	if p < 0 {
		return &AddrError{Op: "corrupt", Block: b, Page: p, Err: ErrOutOfRange}
	}
	pg := &c.blocks[b].pages[p]
	if bit < 0 || bit >= len(pg.data)*8 {
		return &AddrError{Op: "corrupt", Block: b, Page: p, Err: ErrOutOfRange}
	}
	pg.data[bit/8] ^= 1 << uint(bit%8)
	return nil
}

// EraseCount returns the number of erases block b has absorbed.
func (c *Chip) EraseCount(b int) int {
	if b < 0 || b >= len(c.blocks) {
		return 0
	}
	return c.blocks[b].eraseCount
}

// EraseCounts appends the per-block erase counts to dst and returns it.
func (c *Chip) EraseCounts(dst []int) []int {
	for i := range c.blocks {
		dst = append(dst, c.blocks[i].eraseCount)
	}
	return dst
}

// WornBlocks returns how many blocks have exhausted their endurance.
func (c *Chip) WornBlocks() int { return c.worn }

// FirstWornBlock returns the index of the first block to wear out, or -1.
func (c *Chip) FirstWornBlock() int { return c.first }
