package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ditto/internal/sim"
)

// quickOpt is the figure configuration the determinism rows share: the
// quick windows of dittobench -quick, no fine-tuning.
func quickOpt(seed int64) Options {
	return Options{
		Windows: Windows{Warmup: 10 * sim.Millisecond, Measure: 50 * sim.Millisecond},
		Seed:    seed,
	}
}

// sampledCellOpt is the sampled figure cell the determinism rows pin down:
// the figure_cell workload (fig8, nginx, quick windows) with steady-state
// sampling enabled.
func sampledCellOpt() Options {
	opt := quickOpt(3)
	opt.Apps = []string{"nginx"}
	opt.Sampled = true
	return opt
}

// Figure runners, normalized to one signature.
func fig6Run(w io.Writer, o Options) any { return RunFig6(w, o, []float64{150, 400}) }
func fig8Run(w io.Writer, o Options) any { return RunFig8(w, o) }
func figFRun(w io.Writer, o Options) any { return RunFigF(w, o, 600) }
func figSRun(w io.Writer, o Options) any { return RunFigS(w, o, 0) }

// determinismRow is one figure configuration whose bytes and results must
// not depend on how the cells execute. The reference run uses a cell pool
// of width 1 (and one shard worker per cell); its bytes are also pinned by
// testdata/<golden>.golden, so a refactor that changes any simulated number
// fails here even when every execution width changes the same way. Rows
// that render the same figure configuration along different execution axes
// share one golden, and with it one reference run.
type determinismRow struct {
	name      string
	golden    string // golden file stem; empty means name
	base      Options
	fig       func(io.Writer, Options) any
	variants  []variant // execution settings compared with the reference
	minPoints int
	check     func(t *testing.T, r determinismRow, ref any, refOut []byte) // optional
}

func (r determinismRow) goldenName() string {
	if r.golden == "" {
		return r.name
	}
	return r.golden
}

// variant is one execution setting a row is re-run at.
type variant struct {
	label string
	set   func(*Options)
}

// pool8 re-runs a row on a cell pool of width 8.
var pool8 = []variant{{"pool 8", func(o *Options) { o.Parallel = 8 }}}

// intra re-runs a row at each shard width on a pool of two, which keeps the
// thread budget small.
func intra(widths ...int) []variant {
	var vs []variant
	for _, w := range widths {
		w := w
		vs = append(vs, variant{fmt.Sprintf("intra %d", w),
			func(o *Options) { o.Parallel, o.IntraParallel = 2, w }})
	}
	return vs
}

// run renders the row's figure with set applied to its options.
func (r determinismRow) run(set func(*Options)) ([]byte, any) {
	opt := r.base
	opt.Parallel = 1
	set(&opt)
	var buf bytes.Buffer
	res := r.fig(&buf, opt)
	return buf.Bytes(), res
}

func determinismRows() []determinismRow {
	fig8Full := quickOpt(1)
	fig8Full.Apps = []string{"nginx"}
	return []determinismRow{
		// Every cell owns its engine and all mutable state, and the runner
		// flushes buffered cell output in plan order, so pool width must be
		// unobservable.
		{name: "fig6-pool", base: quickOpt(3), fig: fig6Run, variants: pool8, minPoints: 1},
		// Shard workers must be equally unobservable: the reference
		// executes every window serially.
		{name: "fig6-intra", golden: "fig6-pool", base: quickOpt(3), fig: fig6Run,
			variants: intra(2, 8), minPoints: 1},
		// Fault-plane events (crashes, partitions, seeded packet loss, CPU
		// throttling) and the resilience layer's retries, hedges and
		// breaker trips must replay identically at any pool width.
		{name: "figF-pool", base: quickOpt(3), fig: figFRun, variants: pool8, minPoints: 12, check: checkFigF},
		// WAL fsync parking, dirty-page writeback, block-cache state and
		// LSM flush/compaction scheduling under a wide pool; the blob
		// backend's cross-machine traffic and every machine's private disk
		// and page-cache state under shard workers.
		{name: "figS-pool", base: quickOpt(3), fig: figSRun, variants: pool8, minPoints: 6, check: checkFigS},
		{name: "figS-intra", golden: "figS-pool", base: quickOpt(3), fig: figSRun,
			variants: intra(8), minPoints: 6, check: checkFigS},
		// The fully executed figure cell.
		{name: "fig8-pool", base: fig8Full, fig: fig8Run, variants: pool8, minPoints: 1},
		// The sampler is per-kernel state seeded from the cell, so both
		// parallelism axes must stay unobservable under sampled execution.
		{name: "fig8-sampled-pool", base: sampledCellOpt(), fig: fig8Run, variants: pool8, minPoints: 1},
		{name: "fig8-sampled-intra", golden: "fig8-sampled-pool", base: sampledCellOpt(), fig: fig8Run,
			variants: intra(2, 8), minPoints: 1},
		// A different seed changes the rotation (guarding against a sampler
		// that ignores its seed). Two runs at one seed need no row of their
		// own: the pool rows already compare two runs at one seed.
		{name: "fig8-sampled-seed", golden: "fig8-sampled-pool", base: sampledCellOpt(), fig: fig8Run,
			minPoints: 1, check: checkSeedMatters},
	}
}

// points counts a figure result's rows.
func points(res any) int {
	switch r := res.(type) {
	case Fig6Result:
		return len(r.Points)
	case Fig8Result:
		return len(r.Rows)
	case FigFResult:
		return len(r.Points)
	case FigSResult:
		return len(r.Points)
	}
	return 0
}

// checkFigF requires some fault scenario to have an observable effect.
func checkFigF(t *testing.T, _ determinismRow, ref any, _ []byte) {
	for _, pt := range ref.(FigFResult).Points {
		if pt.Scenario != "baseline" && (pt.ErrRate > 0 || pt.Dropped > 0 || pt.P99Ms > 0) {
			return
		}
	}
	t.Fatal("no fault scenario produced any observable effect")
}

// checkFigS requires exactly 3 backends x 2 variants, each serving
// storage traffic.
func checkFigS(t *testing.T, _ determinismRow, ref any, _ []byte) {
	res := ref.(FigSResult)
	if len(res.Points) != 6 {
		t.Fatalf("reference run produced %d points, want 6 (3 backends x 2 variants)", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.Throughput == 0 || pt.DiskWriteBW == 0 {
			t.Fatalf("figS %s/%s served no storage traffic: %+v", pt.Backend, pt.Variant, pt)
		}
	}
}

// checkSeedMatters requires a different seed to change the output.
func checkSeedMatters(t *testing.T, r determinismRow, _ any, refOut []byte) {
	if other, _ := r.run(func(o *Options) { o.Seed = 4 }); bytes.Equal(refOut, other) {
		t.Fatal("different seeds produced identical output; the sampler's seed is dead")
	}
}

// TestFigureDeterminism is the repository's byte-identity guarantee. Each
// row renders one figure at pool width 1 and again at every variant (a wider
// cell pool, shard workers); all runs must produce the same bytes and
// results, and the reference bytes must equal the committed golden. Rows
// that share a golden render their reference once. A missing golden is
// written and the test fails until it is committed.
func TestFigureDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline runs; skipped in -short")
	}
	type reference struct {
		out []byte
		res any
	}
	refs := map[string]reference{} // by golden stem
	for _, row := range determinismRows() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			golden := row.goldenName()
			r, ok := refs[golden]
			if !ok {
				r.out, r.res = row.run(func(*Options) {})
				refs[golden] = r
			}
			refOut, ref := r.out, r.res
			if len(refOut) == 0 || points(ref) < row.minPoints {
				t.Fatalf("reference run produced %d bytes and %d points, want >= %d points",
					len(refOut), points(ref), row.minPoints)
			}
			if row.check != nil {
				row.check(t, row, ref, refOut)
			}
			for _, v := range row.variants {
				out, res := row.run(v.set)
				if !bytes.Equal(refOut, out) {
					t.Fatalf("output differs between pool 1 and %s:\n--- pool 1 ---\n%s\n--- %s ---\n%s",
						v.label, refOut, v.label, out)
				}
				if !reflect.DeepEqual(ref, res) {
					t.Fatalf("results differ between pool 1 and %s:\n%+v\nvs\n%+v",
						v.label, ref, res)
				}
			}
			checkGolden(t, golden, refOut)
		})
	}
}

// checkGolden compares out with testdata/<name>.golden. The goldens are
// generated on amd64; other architectures may fuse multiply-adds, which
// changes the last digits of printed floats, so the comparison is skipped
// there (the axis comparison above still runs).
func checkGolden(t *testing.T, name string, out []byte) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Logf("golden comparison skipped on %s", runtime.GOARCH)
		return
	}
	path := filepath.Join("testdata", name+".golden")
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("golden %s was missing and has been written; commit it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, out) {
		t.Fatalf("output differs from %s:\n--- golden ---\n%s\n--- got ---\n%s", path, want, out)
	}
}
