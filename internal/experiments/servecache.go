package experiments

import (
	"fmt"
	"strings"

	"flashswl/internal/sim"
)

// The serve-cache experiment: the head-to-head test of the PAPERS.md claim
// that a flash-aware cache can replace wear leveling. Every cell runs the
// same trace to first failure over the same device; the grid crosses
// write-back cache sizes (including none) with the SW Leveler on and off,
// so the four corners are baseline, cache-only, SWL-only, and both.

// ServeCacheSizes is the default cache-size sweep, in page-sized lines.
// 0 is the uncached control; the rest bracket the hot set of the paper's
// workload model at the quick and default scales.
var ServeCacheSizes = []int{0, 8, 32, 128}

// ServeCacheRow is one completed (cache size, leveler) cell.
type ServeCacheRow struct {
	CachePages int
	SWL        bool
	Cfg        sim.Config
	Res        *sim.Result
}

// ServeCacheResult holds the finished grid, rows ordered by cache size
// then leveler (off before on).
type ServeCacheResult struct {
	Scale Scale
	Layer sim.LayerKind
	K     int
	// PaperT is the paper-scale threshold label the SWL cells ran with.
	PaperT float64
	Rows   []ServeCacheRow
}

// serveCacheLabel names a cell for summaries and hooks.
func serveCacheLabel(layer sim.LayerKind, pages int, swl bool) string {
	lv := "none"
	if swl {
		lv = "swl"
	}
	return fmt.Sprintf("servecache/%s/c%d_%s", layer, pages, lv)
}

// RunServeCache runs the cache-vs-SWL-vs-both grid for one layer: every
// cache size in sizes (nil = ServeCacheSizes) with the leveler off and on,
// each cell to first failure. Cells run in parallel, each with its own
// stack and replay of the scale's shared trace; none branches from a
// warm-up, because dirty cache lines are not checkpoint state.
func RunServeCache(sc Scale, layer sim.LayerKind, k int, paperT float64, sizes []int) (*ServeCacheResult, error) {
	if sizes == nil {
		sizes = ServeCacheSizes
	}
	out := &ServeCacheResult{Scale: sc, Layer: layer, K: k, PaperT: paperT}
	var cells []cell
	for _, pages := range sizes {
		for _, swl := range []bool{false, true} {
			cfg := sc.config(layer, swl, k, paperT)
			toFailure(&cfg)
			cfg.CachePages = pages
			if pages > 0 {
				cfg.CacheAssoc = 4
				if pages < 4 {
					cfg.CacheAssoc = pages
				}
			}
			cells = append(cells, cell{label: serveCacheLabel(layer, pages, swl), cfg: cfg})
			out.Rows = append(out.Rows, ServeCacheRow{CachePages: pages, SWL: swl, Cfg: cfg})
		}
	}
	res, err := sc.runCells(cells)
	if err != nil {
		return nil, err
	}
	for i := range out.Rows {
		out.Rows[i].Res = res[i]
	}
	return out, nil
}

// ServeCacheCSV renders the grid as deterministic CSV: one row per cell in
// sweep order, every column derived from the simulation.
func ServeCacheCSV(r *ServeCacheResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# servecache %s k=%d T=%g\n", r.Layer, r.K, r.PaperT)
	b.WriteString("cache_pages,swl,survived,first_wear_years,erases,forced_erases,live_copies,max_erase,mean_erase,dev_erase,page_writes,cache_hits,cache_misses,cache_writebacks,writeback_sectors\n")
	for _, row := range r.Rows {
		res := row.Res
		var hits, misses, wbacks, wbsecs int64
		if res.Cache != nil {
			hits, misses = res.Cache.Hits, res.Cache.Misses
			wbacks, wbsecs = res.Cache.Writebacks, res.Cache.WritebackSectors
		}
		fmt.Fprintf(&b, "%d,%v,%v,%.6g,%d,%d,%d,%d,%.6g,%.6g,%d,%d,%d,%d,%d\n",
			row.CachePages, row.SWL, res.FirstWear < 0, res.FirstWearYears(),
			res.Erases, res.ForcedErases, res.LiveCopies,
			int(res.EraseStats.Max()), res.EraseStats.Mean(), res.EraseStats.StdDev(),
			res.PageWrites, hits, misses, wbacks, wbsecs)
	}
	return b.String()
}

// FormatServeCache renders the grid for terminal output.
func FormatServeCache(r *ServeCacheResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "serve cache: %s, k=%d, T=%g (paper scale)\n", r.Layer, r.K, r.PaperT)
	fmt.Fprintf(&b, "%12s %5s %9s %13s %10s %10s %10s %10s\n",
		"cache/pages", "swl", "survived", "first wear/y", "erases", "max erase", "hits", "writebacks")
	for _, row := range r.Rows {
		res := row.Res
		var hits, wbacks int64
		if res.Cache != nil {
			hits, wbacks = res.Cache.Hits, res.Cache.Writebacks
		}
		fmt.Fprintf(&b, "%12d %5v %9v %13.4g %10d %10d %10d %10d\n",
			row.CachePages, row.SWL, res.FirstWear < 0, res.FirstWearYears(),
			res.Erases, int(res.EraseStats.Max()), hits, wbacks)
	}
	return b.String()
}

// WriteServeCacheArtifacts writes serve_cache.csv into dir and returns the
// files written, relative to dir.
func WriteServeCacheArtifacts(dir string, r *ServeCacheResult) ([]string, error) {
	return writeArtifacts(dir, []artifact{textArtifact("serve_cache.csv", ServeCacheCSV(r))})
}
