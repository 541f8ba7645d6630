package gc

import (
	"fmt"

	"flashswl/internal/ecc"
	"flashswl/internal/mtd"
	"flashswl/internal/nand"
)

// Pager is the page programmer: how a page and its out-of-band area reach
// the chip and come back. Unless Config.NoSpare is set, every program writes
// a SpareInfo (owner address, write sequence, payload checksum) to the
// spare area — Mount rebuilds the mapping from those; large pure-simulation
// runs disable them for speed. With Config.ECC, full-page writes also carry
// the SmartMedia Hamming code (3 bytes per 256-byte chunk, after the
// SpareInfo), full-page reads correct single-bit errors transparently and
// fail on double-bit errors, and partial-page traffic passes through
// unprotected.
type Pager struct {
	Seq uint32 // write sequence number of the newest spare
	Buf []byte // one page of scratch for relocation copies

	dev       *mtd.Driver
	name      string
	noSpare   bool
	ecc       bool
	corrected *int64 // Config.Corrected: single-bit errors repaired on reads

	spareBuf [nand.SpareInfoSize]byte
	oobBuf   []byte // full-spare scratch when ECC is on
}

func newPager(cfg Config) (Pager, error) {
	geo := cfg.Dev.Info().Geometry
	p := Pager{
		Buf: make([]byte, geo.PageSize),
		dev: cfg.Dev, name: cfg.Name, noSpare: cfg.NoSpare, ecc: cfg.ECC, corrected: cfg.Corrected,
	}
	if cfg.ECC {
		if cfg.NoSpare {
			return Pager{}, fmt.Errorf("%s: ECC needs spare areas", cfg.Name)
		}
		if geo.PageSize%ecc.ChunkSize != 0 {
			return Pager{}, fmt.Errorf("%s: page size %d not a multiple of the %d-byte ECC chunk", cfg.Name, geo.PageSize, ecc.ChunkSize)
		}
		if need := nand.SpareInfoSize + geo.PageSize/ecc.ChunkSize*ecc.Size; geo.SpareSize < need {
			return Pager{}, fmt.Errorf("%s: ECC needs %d spare bytes, device has %d", cfg.Name, need, geo.SpareSize)
		}
		p.oobBuf = make([]byte, geo.SpareSize)
	}
	return p, nil
}

// Program writes data (nil in metadata-only simulations) and the spare area
// naming its owner to a physical page.
//
//lint:hotpath every page program of every driver
func (p *Pager) Program(ppn int, owner uint32, data []byte) error {
	var oob []byte
	if !p.noSpare {
		p.Seq++
		info := nand.SpareInfo{LBA: owner, Seq: p.Seq, ECC: nand.ComputeECC(data)}
		if p.ecc && len(data) == len(p.Buf) {
			oob = p.oobBuf[:nand.SpareInfoSize+len(data)/ecc.ChunkSize*ecc.Size]
			info.Encode(oob)
			for at, off := nand.SpareInfoSize, 0; off < len(data); at, off = at+ecc.Size, off+ecc.ChunkSize {
				code := ecc.Calc(data[off : off+ecc.ChunkSize])
				copy(oob[at:], code[:])
			}
		} else {
			oob = info.Encode(p.spareBuf[:])
		}
	}
	return p.dev.WritePage(ppn, data, oob)
}

// Read reads a physical page into buf. A full-page read under ECC is
// checked against the stored Hamming codes and single-bit errors repaired;
// it returns how many. Pages written without codes (partial writes) pass
// through unverified.
func (p *Pager) Read(ppn int, buf []byte) (corrected int, err error) {
	if !p.ecc || len(buf) != len(p.Buf) {
		_, err := p.dev.ReadPage(ppn, buf, nil)
		return 0, err
	}
	if _, err := p.dev.ReadPage(ppn, buf, p.oobBuf); err != nil {
		return 0, err
	}
	codes := p.oobBuf[nand.SpareInfoSize : nand.SpareInfoSize+len(buf)/ecc.ChunkSize*ecc.Size]
	blank := true
	for _, b := range codes {
		if b != 0xFF {
			blank = false
			break
		}
	}
	if blank {
		return 0, nil // no codes stored for this page
	}
	n, err := ecc.CorrectPage(buf, codes)
	if err != nil {
		return n, fmt.Errorf("%s: page %d: %w", p.name, ppn, err)
	}
	*p.corrected += int64(n)
	return n, nil
}

// Blank fills buf with 0xFF, what reading an unmapped page returns.
func Blank(buf []byte) {
	for i := range buf {
		buf[i] = 0xFF
	}
}
