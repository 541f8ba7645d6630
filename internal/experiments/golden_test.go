package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flashswl/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got against testdata/<name>, rewriting the file
// instead when the -update flag is set. The simulator is fully deterministic
// (fixed seeds, its own splitmix RNG, no wall-clock input), so CSV output is
// reproducible byte for byte across platforms.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiments -run Golden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file (re-run with -update if the change is intended)\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// goldenGrid is a reduced sweep — the paper grid's corners — so the golden
// runs stay fast while still covering baseline rows, both k extremes, and
// both T extremes.
var (
	goldenKs = []int{0, 3}
	goldenTs = []float64{100, 1000}
)

func TestFigure5CSVGolden(t *testing.T) {
	sc := QuickScale()
	s, err := Figure5(sc, sim.FTL, goldenKs, goldenTs)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig5_ftl_quick.csv", SeriesCSV("fig5", s, goldenKs, goldenTs))
}

func TestTable4CSVGolden(t *testing.T) {
	sc := QuickScale()
	sc.CheckInvariants = true // the golden sweep doubles as an invariant run
	aged, err := RunAged(sc, goldenKs, goldenTs)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table4_quick.csv", Table4CSV(aged.Table4()))
	checkGolden(t, "fig6_ftl_quick.csv", SeriesCSV("fig6", aged.Figure6(sim.FTL), goldenKs, goldenTs))
}

func TestServeCacheCSVGolden(t *testing.T) {
	sc := QuickScale()
	res, err := RunServeCache(sc, sim.FTL, 0, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if (row.CachePages > 0) != (row.Res.Cache != nil) {
			t.Errorf("cell c%d swl=%v: cache stats presence %v does not match config", row.CachePages, row.SWL, row.Res.Cache != nil)
		}
	}
	checkGolden(t, "serve_cache.csv", ServeCacheCSV(res))
}

func TestWearSeriesCSVGolden(t *testing.T) {
	sc := QuickScale()
	sc.CheckInvariants = true
	dir := t.TempDir()
	names, err := WriteWearSeries(dir, sc, []sim.LayerKind{sim.FTL}, []int{0}, []float64{100}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"wear_FTL_base.csv", "wear_FTL_k0_T100.csv"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("wrote %v, want %v", names, want)
	}
	got, err := os.ReadFile(filepath.Join(dir, "wear_FTL_k0_T100.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if samples := strings.Count(string(got), "\n") - 1; samples < 2 {
		t.Fatalf("trajectory produced %d samples, want several", samples)
	}
	checkGolden(t, "wear_ftl_quick.csv", string(got))
}

// TestAblationsCSVGolden pins the ablation list, and checks its first-wear
// column against the figures the deleted BenchmarkAblation*/BaselineTrueFFS
// functions reported at the commit that removed them (`firstwear-hours`,
// three decimals).
func TestAblationsCSVGolden(t *testing.T) {
	rows, err := RunAblations(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"2.311", "2.317", "2.515", "2.311", "2.258", "2.158", "2.311", "2.311"}
	if len(rows) != len(want) {
		t.Fatalf("%d ablation rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if got := fmt.Sprintf("%.3f", r.firstWearHours()); got != want[i] {
			t.Errorf("%s: first wear %s h, the benchmark it replaces reported %s", r.Variant, got, want[i])
		}
	}
	checkGolden(t, "ablations_quick.csv", AblationsCSV(rows))
}
