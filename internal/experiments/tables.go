package experiments

import (
	"fmt"
	"strings"

	"flashswl/internal/core"
)

// Table1Row is one row of Table 1: BET bytes per capacity for one k.
type Table1Row struct {
	K     int
	Bytes []int // one entry per capacity
}

// Table1Capacities are the SLC capacities of Table 1, in bytes.
var Table1Capacities = []int64{128 << 20, 256 << 20, 512 << 20, 1 << 30, 2 << 30, 4 << 30}

// Block sizes Table 1 is computed for: SLC large-block flash as published,
// and MLC×2 (128 × 2 KB pages) — half the blocks at each capacity, so half
// the table; the paper notes the BET shrinks further on MLC.
const (
	SLCBlockSize  = 128 << 10
	MLC2BlockSize = 256 << 10
)

// Table1 computes the BET size for flash memory of the given block size
// across the paper's capacities and mapping modes.
func Table1(blockSize int64) []Table1Row {
	rows := make([]Table1Row, 0, len(PaperKs))
	for _, k := range PaperKs {
		row := Table1Row{K: k}
		for _, capBytes := range Table1Capacities {
			row.Bytes = append(row.Bytes, core.BETSizeBytes(int(capBytes/blockSize), k))
		}
		rows = append(rows, row)
	}
	return rows
}

// Table2Row is one row of Table 2: the worst-case increased ratio of block
// erases for a hot/cold split and threshold.
type Table2Row struct {
	H, C         int
	T            float64
	IncreasedPct float64
}

// Table2 computes the worst-case extra block erases of a 1 GB MLC×2 device
// (Section 4.2).
func Table2() []Table2Row {
	var rows []Table2Row
	for _, cfg := range []struct {
		h, c int
		t    float64
	}{
		{256, 3840, 100},
		{2048, 2048, 100},
		{256, 3840, 1000},
		{2048, 2048, 1000},
	} {
		rows = append(rows, Table2Row{
			H: cfg.h, C: cfg.c, T: cfg.t,
			IncreasedPct: core.WorstCaseEraseRatio(cfg.h, cfg.c, cfg.t) * 100,
		})
	}
	return rows
}

// Table3Row is one row of Table 3: the worst-case increased ratio of
// live-page copyings.
type Table3Row struct {
	H, C         int
	T            float64
	L            float64
	NOverTL      float64
	IncreasedPct float64
}

// Table3 computes the worst-case extra live-page copyings of a 1 GB MLC×2
// device with N = 128 pages per block (Section 4.3).
func Table3() []Table3Row {
	const n = 128
	var rows []Table3Row
	for _, cfg := range []struct {
		h, c int
		t, l float64
	}{
		{256, 3840, 100, 16},
		{2048, 2048, 100, 16},
		{256, 3840, 100, 32},
		{2048, 2048, 100, 32},
		{256, 3840, 1000, 16},
		{2048, 2048, 1000, 16},
		{256, 3840, 1000, 32},
		{2048, 2048, 1000, 32},
	} {
		rows = append(rows, Table3Row{
			H: cfg.h, C: cfg.c, T: cfg.t, L: cfg.l,
			NOverTL:      n / (cfg.t * cfg.l),
			IncreasedPct: core.WorstCaseCopyRatio(cfg.h, cfg.c, cfg.t, cfg.l, n) * 100,
		})
	}
	return rows
}

// FormatTable1 renders Table 1 in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "")
	for _, c := range Table1Capacities {
		fmt.Fprintf(&b, "%10s", byteSize(c))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "k = %-2d", r.K)
		for _, v := range r.Bytes {
			fmt.Fprintf(&b, "%9dB", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatTable2 renders Table 2 in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %6s %8s %6s %18s\n", "H", "C", "H:C", "T", "Increased Ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %6d %8s %6.0f %17.3f%%\n", r.H, r.C, ratio(r.H, r.C), r.T, r.IncreasedPct)
	}
	return b.String()
}

// FormatTable3 renders Table 3 in the paper's layout.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %6s %8s %6s %4s %8s %18s\n", "H", "C", "H:C", "T", "L", "N/(T*L)", "Increased Ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %6d %8s %6.0f %4.0f %8.4f %17.3f%%\n",
			r.H, r.C, ratio(r.H, r.C), r.T, r.L, r.NOverTL, r.IncreasedPct)
	}
	return b.String()
}

func ratio(h, c int) string {
	g := gcd(h, c)
	return fmt.Sprintf("%d:%d", h/g, c/g)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dGB", n>>30)
	default:
		return fmt.Sprintf("%dMB", n>>20)
	}
}
