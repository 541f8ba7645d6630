package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"regexp"
	"testing"

	"flashswl/internal/blockdev"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
	}{
		{9, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {90230, 0.999}, {100000, 0.9999}, {3000000, 0.9999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("even median = %g", got)
	}
}

// TestSelfTime replays a nested span sequence on a scripted clock:
//
//	sim.event      [0 ........................... 100]
//	  driver.write   [10 ......... 40]  [50 .. 60]
//	    nand.program    [15 .. 25]
func TestSelfTime(t *testing.T) {
	times := []int64{0, 10, 15, 25, 40, 50, 60, 100}
	tr := &tracer{first: -1, clock: func() int64 {
		now := times[0]
		times = times[1:]
		return now
	}}
	tr.begin(spSimEvent)
	tr.begin(spDrvWrite)
	tr.begin(spNandProgram)
	tr.end()
	if dur := tr.end(); dur != 30 {
		t.Errorf("first write lasted %d, want 30", dur)
	}
	tr.begin(spDrvWrite)
	tr.end()
	tr.end()

	want := map[spanKind]spanAgg{
		spSimEvent:    {Calls: 1, Total: 100, Self: 60},
		spDrvWrite:    {Calls: 2, Total: 40, Self: 30},
		spNandProgram: {Calls: 1, Total: 10, Self: 10},
	}
	for k, w := range want {
		if got := tr.agg[k]; got != w {
			t.Errorf("%s: %+v, want %+v", spanInfo[k].name, got, w)
		}
	}
	self := tr.layerSelf()
	if self[layerSim]+self[layerDriver]+self[layerNand] != 100 || tr.rootTotal != 100 || tr.first != 0 || tr.last != 100 {
		t.Errorf("self times %v do not add up to the root span (rootTotal %d, first %d, last %d)", self, tr.rootTotal, tr.first, tr.last)
	}
	spans := tr.spans()
	if len(spans) != 4 {
		t.Fatalf("%d raw spans, want 4", len(spans))
	}
	// Completion order: program, write, write, event.
	if p := spans[0]; p.Kind != spNandProgram || p.Parent != spans[1].ID || p.Root != spans[3].ID {
		t.Errorf("program span %+v is not under write %d and event %d", p, spans[1].ID, spans[3].ID)
	}
	if e := spans[3]; e.Parent != 0 || e.Root != e.ID || e.Start != 0 || e.End != 100 {
		t.Errorf("root span %+v", e)
	}
}

func testGen() opGen {
	return opGen{base: 4096, size: 8192, hotSize: 512, hotPct: 90, maxSectors: 8}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b, other := newClient(7, testGen()), newClient(7, testGen()), newClient(8, testGen())
	same, hot := true, 0
	for i := 0; i < 5000; i++ {
		ra, rb, ro := a.gen.next(), b.gen.next(), other.gen.next()
		if ra != rb {
			t.Fatalf("request %d: %+v and %+v from the same seed", i, ra, rb)
		}
		same = same && ra == ro
		if ra.sectors < 1 || ra.sectors > 8 || ra.lba < 4096 || ra.lba+int64(ra.sectors) > 4096+8192 {
			t.Fatalf("request %d leaves the client's range: %+v", i, ra)
		}
		if ra.lba+int64(ra.sectors) <= 4096+512 {
			hot++
		}
	}
	if same {
		t.Error("seeds 7 and 8 generate the same requests")
	}
	if hot < 4400 || hot > 4700 { // 90% aimed plus the uniform rest that lands there
		t.Errorf("%d of 5000 requests in the hot region, want about 4530", hot)
	}
}

// memServer is an honest in-memory sector device that can be told to flip
// one byte of its n-th read.
type memServer struct {
	data      []byte
	reads     int
	corruptAt int
}

func (m *memServer) span(lba int64, buf []byte) ([]byte, error) {
	off := lba * blockdev.SectorSize
	if off < 0 || off+int64(len(buf)) > int64(len(m.data)) {
		return nil, errors.New("out of range")
	}
	return m.data[off : off+int64(len(buf))], nil
}

func (m *memServer) Write(lba int64, buf []byte) error {
	dst, err := m.span(lba, buf)
	copy(dst, buf)
	return err
}

func (m *memServer) Read(lba int64, buf []byte) error {
	src, err := m.span(lba, buf)
	copy(buf, src)
	if m.reads++; m.reads == m.corruptAt && err == nil {
		buf[len(buf)-1] ^= 1
	}
	return err
}

func TestShadowCatchesCorruptedRead(t *testing.T) {
	for _, corruptAt := range []int{0, 40} {
		srv := &memServer{data: make([]byte, (4096+8192)*blockdev.SectorSize), corruptAt: corruptAt}
		c := newClient(3, testGen())
		c.sweep(srv, true)
		c.run(srv, 500)
		c.sweep(srv, false)
		want := int64(0)
		if corruptAt > 0 {
			want = 1
		}
		if c.failed != want || c.attempted != 64+500+64 {
			t.Errorf("corrupting read %d: %d of %d operations failed, want %d of 628", corruptAt, c.failed, c.attempted, want)
		}
		if len(c.lat[0])+len(c.lat[1]) != 500 || c.roundTrip <= 0 {
			t.Errorf("%d+%d latencies for 500 requests", len(c.lat[0]), len(c.lat[1]))
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables it is generated from
// (go run ./bench -manifest) and the tables to the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(contractEndToEnd(), contractPerLayer()...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] || (m.Better != "higher" && m.Better != "lower") || m.Bound > 0.25 {
			t.Errorf("metric %+v breaks the contract (or repeats)", m)
		}
		seen[m.Name] = true
	}
	if n := len(contractPerLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128", n)
	}
	for _, w := range workloads {
		if !name.MatchString(w.name()) || len(w.why()) > 200 || seen[w.name()] {
			t.Errorf("workload %s: name or why (%d chars) breaks the contract", w.name(), len(w.why()))
		}
		seen[w.name()] = true
	}

	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/:", err)
	}
	var got, want any
	if err := json.Unmarshal(onDisk, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(benchmarkJSON()), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with go run ./bench -manifest > BENCHMARK.json")
	}
}
