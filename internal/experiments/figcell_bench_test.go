package experiments

import (
	"io"
	"regexp"
	"testing"

	"ditto/internal/sim"
)

// quickCellOptions sizes a benchmarked figure cell: quick windows, no
// fine-tuning, seed 1.
func quickCellOptions() Options {
	return Options{
		Windows:   Windows{Warmup: 10 * sim.Millisecond, Measure: 50 * sim.Millisecond},
		TuneIters: 0,
		Quiet:     true,
		Seed:      1,
	}
}

// BenchmarkFig8Cell is the end-to-end hot-path benchmark: one fig8 nginx
// figure cell at quick windows (figure_cell in EXPERIMENTS.md's history
// table). It exercises the whole stack: kernel, stream caches, decoded
// traces, cache hierarchies and the reporting layer.
func BenchmarkFig8Cell(b *testing.B) {
	opt := quickCellOptions()
	opt.Apps = []string{"nginx"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunFig8(io.Discard, opt)
	}
}

// BenchmarkFig8CellSampled is BenchmarkFig8Cell under sampled steady-state
// execution (figure_cell_sampled). The ratio against BenchmarkFig8Cell is
// the sampling speedup.
func BenchmarkFig8CellSampled(b *testing.B) {
	opt := quickCellOptions()
	opt.Apps = []string{"nginx"}
	opt.Sampled = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunFig8(io.Discard, opt)
	}
}

// BenchmarkFigFCell runs one fault-injection figure cell, crash-cache on
// the original deployment (fault_cell in EXPERIMENTS.md's history table):
// the chaos plane and resilient RPC end to end.
func BenchmarkFigFCell(b *testing.B) {
	opt := quickCellOptions()
	opt.CellFilter = regexp.MustCompile(`figF/crash-cache/actual`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunFigF(io.Discard, opt, 600)
	}
}

// BenchmarkFigSCell runs one storage figure cell, lsm on the original
// deployment (storage_cell in EXPERIMENTS.md's history table): WAL fsyncs,
// dirty-page writeback and LSM flush/compaction end to end.
func BenchmarkFigSCell(b *testing.B) {
	opt := quickCellOptions()
	opt.CellFilter = regexp.MustCompile(`figS/lsm/actual`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunFigS(io.Discard, opt, 0)
	}
}
