// Package ditto_test hosts the benchmark harness that regenerates every
// table and figure in the paper's evaluation (§6). Each benchmark prints
// the artifact's rows/series; run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers come from the simulated platforms, not the authors'
// testbed; the reproduction target is the shape of each artifact (see
// EXPERIMENTS.md).
package ditto_test

import (
	"io"
	"os"
	"testing"

	"ditto/internal/experiments"
	"ditto/internal/sim"
)

// BenchmarkEngineScheduleFire is the engine hot-path baseline: one After
// plus the Step that fires it. Events live by value in the engine's heap, so
// the steady state is allocation-free.
func BenchmarkEngineScheduleFire(b *testing.B) {
	eng := sim.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(sim.Microsecond, func() {})
		eng.Step()
	}
}

// BenchmarkFigureCell runs one end-to-end evaluation cell (fig8, NGINX only,
// quick windows): clone prep plus two measured cells through the plan
// runner. This is the unit of work the parallel scheduler distributes.
func BenchmarkFigureCell(b *testing.B) {
	opt := benchOptions()
	opt.TuneIters = 0
	opt.IncludeSocial = false
	opt.Quiet = true
	opt.Apps = []string{"nginx"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunFig8(io.Discard, opt)
	}
}

// benchOptions sizes the runs for the benchmark harness: windows long
// enough for stable percentiles (hundreds to thousands of requests per
// measurement), with fine-tuning enabled.
func benchOptions() experiments.Options {
	return experiments.Options{
		Windows: experiments.Windows{
			Warmup:  10 * sim.Millisecond,
			Measure: 40 * sim.Millisecond,
		},
		TuneIters:     2,
		Seed:          1,
		IncludeSocial: true,
		SocialNodes:   2,
	}
}

func BenchmarkTable1Platforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunTable1(os.Stdout)
	}
}

func BenchmarkFig5ValidationVaryingLoad(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig5(os.Stdout, opt)
		b.ReportMetric(res.AvgErrors["ipc"], "ipc-err-%")
		b.ReportMetric(res.AvgErrors["llc"], "llc-err-%")
	}
}

func BenchmarkFig6SocialNetworkEndToEnd(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.RunFig6(os.Stdout, opt, nil)
	}
}

func BenchmarkFig7CrossPlatform(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.RunFig7(os.Stdout, opt)
	}
}

func BenchmarkFig8TopDown(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.RunFig8(os.Stdout, opt)
	}
}

func BenchmarkFig9Decomposition(b *testing.B) {
	opt := benchOptions()
	opt.TuneIters = 3
	for i := 0; i < b.N; i++ {
		experiments.RunFig9(os.Stdout, opt)
	}
}

func BenchmarkFig10Interference(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.RunFig10(os.Stdout, opt)
	}
}

func BenchmarkFig11CoreFrequencyScaling(b *testing.B) {
	opt := benchOptions()
	// A 4×3 grid keeps the bench tractable while preserving the heatmap's
	// corners and its QoS frontier; pass nil,nil (7×6) for the full figure.
	cores := []int{4, 8, 12, 16}
	freqs := []float64{1.1, 1.5, 2.1}
	for i := 0; i < b.N; i++ {
		experiments.RunFig11(os.Stdout, opt, cores, freqs)
	}
}
