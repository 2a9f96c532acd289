package experiments

import (
	"io"
	"testing"

	"ditto/internal/sim"
)

// BenchmarkFig8CellSampled is BenchmarkFig8Cell under sampled
// steady-state execution — the figure_cell_sampled artifact. The ratio
// against BenchmarkFig8Cell is the sampling speedup.
func BenchmarkFig8CellSampled(b *testing.B) {
	opt := Options{
		Windows:   Windows{Warmup: 10 * sim.Millisecond, Measure: 50 * sim.Millisecond},
		TuneIters: 0,
		Quiet:     true,
		Apps:      []string{"nginx"},
		Seed:      1,
		Sampled:   true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunFig8(io.Discard, opt)
	}
}
