package experiments

import (
	"bytes"
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

// Execution axes a row varies. Pool width is the cell worker pool;
// intra width is the number of shard workers per cell, run on a pool of
// two so the thread budget stays small.
func poolWidth(o *Options, v int)  { o.Parallel = v }
func intraWidth(o *Options, v int) { o.Parallel, o.IntraParallel = 2, v }
func seedAxis(o *Options, v int)   { o.Seed = int64(v) }

// Figure runners, normalized to one signature.
func fig6Run(w io.Writer, o Options) any { return RunFig6(w, o, []float64{150, 400}) }
func fig8Run(w io.Writer, o Options) any { return RunFig8(w, o) }
func figFRun(w io.Writer, o Options) any { return RunFigF(w, o, 600) }
func figSRun(w io.Writer, o Options) any { return RunFigS(w, o, 0) }

// determinismRow is one figure configuration whose bytes and results must
// not depend on an execution axis. The first axis value is the reference;
// its bytes are also pinned by testdata/<golden>.golden, so a refactor that
// changes any simulated number fails here even when every axis value
// changes the same way. Rows that render the same figure configuration
// along different axes share one golden.
type determinismRow struct {
	name      string
	golden    string // golden file stem; empty means name
	base      Options
	fig       func(io.Writer, Options) any
	set       func(*Options, int)
	axis      []int
	minPoints int
	check     func(t *testing.T, r determinismRow, ref any, refOut []byte) // optional
}

func (r determinismRow) run(v int) ([]byte, any) {
	opt := r.base
	r.set(&opt, v)
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
		{name: "fig6-pool", base: quickOpt(3), fig: fig6Run, set: poolWidth, axis: []int{1, 8}, minPoints: 1},
		// Shard workers must be equally unobservable: width 1 executes
		// every window serially and is the reference.
		{name: "fig6-intra", golden: "fig6-pool", base: quickOpt(3), fig: fig6Run, set: intraWidth,
			axis: []int{1, 2, 8}, minPoints: 1},
		// Fault-plane events (crashes, partitions, seeded packet loss, CPU
		// throttling) and the resilience layer's retries, hedges and
		// breaker trips must replay identically at any pool width.
		{name: "figF-pool", base: quickOpt(3), fig: figFRun, set: poolWidth, axis: []int{1, 8},
			minPoints: 12, check: checkFigF},
		// WAL fsync parking, dirty-page writeback, block-cache state and
		// LSM flush/compaction scheduling under a wide pool; the blob
		// backend's cross-machine traffic and every machine's private disk
		// and page-cache state under shard workers.
		{name: "figS-pool", base: quickOpt(3), fig: figSRun, set: poolWidth, axis: []int{1, 8},
			minPoints: 6, check: checkFigS},
		{name: "figS-intra", golden: "figS-pool", base: quickOpt(3), fig: figSRun, set: intraWidth,
			axis: []int{1, 8}, minPoints: 6, check: checkFigS},
		// The fully executed figure cell at pool width 1 and 8.
		{name: "fig8-pool", base: fig8Full, fig: fig8Run, set: poolWidth, axis: []int{1, 8}, minPoints: 1},
		// The sampler is per-kernel state seeded from the cell, so both
		// parallelism axes must stay unobservable under sampled execution.
		{name: "fig8-sampled-pool", base: sampledCellOpt(), fig: fig8Run, set: poolWidth, axis: []int{1, 8}, minPoints: 1},
		{name: "fig8-sampled-intra", golden: "fig8-sampled-pool", base: sampledCellOpt(), fig: fig8Run,
			set: intraWidth, axis: []int{1, 2, 8}, minPoints: 1},
		// Two runs at one seed are identical, and a different seed changes
		// the rotation (guarding against a sampler that ignores its seed).
		{name: "fig8-sampled-seed", golden: "fig8-sampled-pool", base: sampledCellOpt(), fig: fig8Run,
			set: seedAxis, axis: []int{3, 3}, minPoints: 1, check: checkSeedMatters},
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
	if other, _ := r.run(4); bytes.Equal(refOut, other) {
		t.Fatal("different seeds produced identical output; the sampler's seed is dead")
	}
}

// TestFigureDeterminism is the repository's byte-identity guarantee. Each
// row renders one figure at every value of an execution axis (cell pool
// width, shard workers, or a repeated seed); all runs must produce the same
// bytes and results, and the reference bytes must equal the committed
// golden. A missing golden is written and the test fails until it is
// committed.
func TestFigureDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline runs; skipped in -short")
	}
	for _, row := range determinismRows() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			refOut, ref := row.run(row.axis[0])
			if len(refOut) == 0 || points(ref) < row.minPoints {
				t.Fatalf("reference run produced %d bytes and %d points, want >= %d points",
					len(refOut), points(ref), row.minPoints)
			}
			if row.check != nil {
				row.check(t, row, ref, refOut)
			}
			for _, v := range row.axis[1:] {
				out, res := row.run(v)
				if !bytes.Equal(refOut, out) {
					t.Fatalf("output differs between axis values %d and %d:\n--- %d ---\n%s\n--- %d ---\n%s",
						row.axis[0], v, row.axis[0], refOut, v, out)
				}
				if !reflect.DeepEqual(ref, res) {
					t.Fatalf("results differ between axis values %d and %d:\n%+v\nvs\n%+v",
						row.axis[0], v, ref, res)
				}
			}
			golden := row.golden
			if golden == "" {
				golden = row.name
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
