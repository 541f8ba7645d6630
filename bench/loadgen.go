package main

import (
	"bytes"
	"math/rand"
	"slices"
	"time"

	"flashswl/internal/blockdev"
)

// sectorServer is the part of *serve.Server a client uses.
type sectorServer interface {
	Read(lba int64, buf []byte) error
	Write(lba int64, buf []byte) error
}

// request is one generated operation.
type request struct {
	write   bool
	lba     int64
	sectors int
}

// opGen is the closed-loop request generator of one client: a fixed mix of
// reads and writes of 1..maxSectors sectors at unaligned addresses inside the
// client's own sector range, hotPct percent of them aimed at the hot region
// that starts the range.
type opGen struct {
	rng                *rand.Rand
	base, size         int64 // owned range, in sectors
	hotSize            int64 // 0: no hot region
	hotPct, maxSectors int
}

func (g *opGen) next() request {
	n := 1 + g.rng.Intn(g.maxSectors)
	write := g.rng.Intn(2) == 0
	size := g.size
	if g.hotSize > 0 && g.rng.Intn(100) < g.hotPct {
		size = g.hotSize
	}
	return request{write: write, lba: g.base + g.rng.Int63n(size-int64(n)+1), sectors: n}
}

// fillChunk is the request size of the sequential fill and the final
// read-back: one flash block.
const fillChunk = 128

// client is one closed-loop caller: it owns a disjoint part of the sector
// space and a private shadow copy of it, against which every read is checked.
type client struct {
	gen    opGen
	shadow []byte // the owned range as the client last wrote it
	pool   []byte // random bytes the write payloads are cut from
	buf    []byte

	attempted, failed int64
	bytesWritten      int64
	roundTrip         time.Duration // total time inside Read and Write
	lat               [2][]int      // latencies in ns: [0] reads, [1] writes
}

func newClient(seed int64, gen opGen) *client {
	c := &client{
		gen:    gen,
		shadow: make([]byte, gen.size*blockdev.SectorSize),
		pool:   make([]byte, 1<<20),
		buf:    make([]byte, fillChunk*blockdev.SectorSize),
	}
	c.gen.rng = rand.New(rand.NewSource(seed))
	c.gen.rng.Read(c.pool)
	return c
}

func (c *client) shadowOf(lba int64, n int) []byte {
	off := (lba - c.gen.base) * blockdev.SectorSize
	return c.shadow[off : off+int64(n)*blockdev.SectorSize]
}

// write sends fresh payload and, once acknowledged, records it in the shadow.
func (c *client) write(srv sectorServer, lba int64, n int) time.Duration {
	buf := c.buf[:n*blockdev.SectorSize]
	copy(buf, c.pool[c.gen.rng.Intn(len(c.pool)-len(buf)+1):])
	t0 := time.Now()
	err := srv.Write(lba, buf)
	d := time.Since(t0)
	c.attempted++
	if err != nil {
		c.failed++
		return d
	}
	copy(c.shadowOf(lba, n), buf)
	c.bytesWritten += int64(len(buf))
	return d
}

// read fetches n sectors and fails the operation if they differ from the
// shadow.
func (c *client) read(srv sectorServer, lba int64, n int) time.Duration {
	buf := c.buf[:n*blockdev.SectorSize]
	t0 := time.Now()
	err := srv.Read(lba, buf)
	d := time.Since(t0)
	c.attempted++
	if err != nil || !bytes.Equal(buf, c.shadowOf(lba, n)) {
		c.failed++
	}
	return d
}

// sweep walks the whole owned range in fillChunk steps, writing it (the
// set-up fill) or reading it back against the shadow (the final check).
func (c *client) sweep(srv sectorServer, write bool) {
	for lba := c.gen.base; lba < c.gen.base+c.gen.size; lba += fillChunk {
		n := int(min(fillChunk, c.gen.base+c.gen.size-lba))
		if write {
			c.write(srv, lba, n)
		} else {
			c.read(srv, lba, n)
		}
	}
}

// run issues n generated requests back to back, each after the previous one
// completed.
func (c *client) run(srv sectorServer, n int) {
	for i := 0; i < n; i++ {
		r := c.gen.next()
		if r.write {
			d := c.write(srv, r.lba, r.sectors)
			c.lat[1] = append(c.lat[1], int(d))
			c.roundTrip += d
		} else {
			d := c.read(srv, r.lba, r.sectors)
			c.lat[0] = append(c.lat[0], int(d))
			c.roundTrip += d
		}
	}
}

// startWindow forgets what set-up counted and makes room for n latencies, so
// the measured loop does not allocate for them.
func (c *client) startWindow(n int) {
	c.attempted, c.failed, c.bytesWritten, c.roundTrip = 0, 0, 0, 0
	for i := range c.lat {
		c.lat[i] = slices.Grow(c.lat[i][:0], n)
	}
}
