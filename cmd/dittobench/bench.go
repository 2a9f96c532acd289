package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"

	"ditto/internal/app"
	"ditto/internal/cache"
	"ditto/internal/cpu"
	"ditto/internal/experiments"
	"ditto/internal/isa"
	"ditto/internal/platform"
	"ditto/internal/runner"
	"ditto/internal/sim"
)

// benchReport is the schema of the -bench-json artifact. It freezes the
// engine hot-path cost and the evaluation layer's parallel speedup so later
// PRs can diff against it.
type benchReport struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// Engine micro-benchmark, one After+Step per op. The key keeps its
	// historical name so the BENCH trajectory stays comparable.
	EngineAfterFunc benchStat `json:"engine_after_func"`

	// One end-to-end figure cell (fig8 nginx actual, quick windows).
	FigureCell benchStat `json:"figure_cell"`

	// The same cell under sampled steady-state execution (-sampled): the
	// detector converges, a rotating subset still executes, the rest are
	// modeled. The ns_per_op ratio against figure_cell is the sampling
	// speedup the PR claims.
	FigureCellSampled benchStat `json:"figure_cell_sampled"`

	// Resilience-layer hot path: breaker admit/record plus backoff math for
	// one successful call. The no-fault path must stay allocation-free.
	ResiliencePolicy benchStat `json:"resilience_policy"`

	// One fault-injection figure cell (figF crash-cache, original variant,
	// quick windows): chaos plane + resilient RPC end to end.
	FaultCell benchStat `json:"fault_cell"`

	// One storage figure cell (figS lsm, original variant, quick windows):
	// WAL fsyncs, dirty-page writeback, and LSM flush/compaction end to end.
	StorageCell benchStat `json:"storage_cell"`

	// Request-stream emission: fresh per-request generation vs serving a
	// pregenerated rotating variant, and the decoded-trace dynamic pass.
	EmitUncached benchStat `json:"emit_uncached"`
	EmitCached   benchStat `json:"emit_cached"`
	ExecuteTrace benchStat `json:"execute_trace"`

	// Wall clock of the fig11 grid at pool width 1 vs the actual worker-pool
	// width used for the parallel run. Speedup is omitted when that width is
	// 1: the two runs are then the same configuration and the ratio would be
	// pure noise.
	GridSerialSec   float64  `json:"grid_serial_sec"`
	GridParallelSec float64  `json:"grid_parallel_sec,omitempty"`
	GridWidth       int      `json:"grid_width"`
	Speedup         *float64 `json:"speedup,omitempty"`

	// Wall clock of ONE Social Network cell (4 nodes + client, closed loop)
	// on the sharded engine at 1 worker vs intra_width workers — the
	// intra-cell speedup the conservative-parallel World buys on a single
	// simulation. As above, the speedup is omitted at width 1.
	IntraWidth       int      `json:"intra_width"`
	IntraSerialSec   float64  `json:"intra_serial_sec"`
	IntraParallelSec float64  `json:"intra_parallel_sec,omitempty"`
	IntraSpeedup     *float64 `json:"intra_speedup,omitempty"`
}

type benchStat struct {
	N        int     `json:"n"`
	NsPerOp  float64 `json:"ns_per_op"`
	AllocsOp float64 `json:"allocs_per_op"`
	BytesOp  float64 `json:"bytes_per_op"`
}

func statOf(r testing.BenchmarkResult) benchStat {
	return benchStat{
		N:        r.N,
		NsPerOp:  float64(r.NsPerOp()),
		AllocsOp: float64(r.AllocsPerOp()),
		BytesOp:  float64(r.AllocedBytesPerOp()),
	}
}

// writeBenchJSON runs the PR's benchmark suite and writes the report. It is
// invoked from a plain main (not `go test`), so it drives testing.Benchmark
// directly; windows are forced to quick so the artifact regenerates in
// seconds.
func writeBenchJSON(path string, opt experiments.Options) error {
	opt.Windows = experiments.Windows{Warmup: 10 * sim.Millisecond, Measure: 50 * sim.Millisecond}
	opt.TuneIters = 0
	opt.IncludeSocial = false
	opt.Quiet = true
	opt.Apps = []string{"nginx"}
	opt.CellFilter = nil
	opt.Progress = nil

	rep := benchReport{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0)}

	fmt.Fprintln(os.Stderr, "bench: engine schedule+fire (After+Step)")
	rep.EngineAfterFunc = statOf(testing.Benchmark(func(b *testing.B) {
		eng := sim.NewEngine()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.After(sim.Microsecond, func() {})
			eng.Step()
		}
	}))

	fmt.Fprintln(os.Stderr, "bench: end-to-end figure cell (fig8, nginx, quick windows)")
	cellOpt := opt
	rep.FigureCell = statOf(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiments.RunFig8(discard{}, cellOpt)
		}
	}))
	fmt.Fprintln(os.Stderr, "bench: the same figure cell under sampled steady-state execution")
	sampledOpt := cellOpt
	sampledOpt.Sampled = true
	rep.FigureCellSampled = statOf(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiments.RunFig8(discard{}, sampledOpt)
		}
	}))

	fmt.Fprintln(os.Stderr, "bench: resilience breaker admit+record (no-fault hot path)")
	rep.ResiliencePolicy = statOf(testing.Benchmark(func(b *testing.B) {
		br := app.NewBreaker(5, 10*sim.Millisecond)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now := sim.Time(i) * sim.Microsecond
			if br.Allow(now) {
				br.OnResult(now, true)
			}
		}
	}))

	fmt.Fprintln(os.Stderr, "bench: fault-injection figure cell (figF crash-cache, quick windows)")
	faultOpt := opt
	faultOpt.CellFilter = regexp.MustCompile(`figF/crash-cache/actual`)
	rep.FaultCell = statOf(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiments.RunFigF(discard{}, faultOpt, 600)
		}
	}))

	fmt.Fprintln(os.Stderr, "bench: storage figure cell (figS lsm, quick windows)")
	storeOpt := opt
	storeOpt.CellFilter = regexp.MustCompile(`figS/lsm/actual`)
	rep.StorageCell = statOf(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiments.RunFigS(discard{}, storeOpt, 0)
		}
	}))

	fmt.Fprintln(os.Stderr, "bench: request-stream emission (uncached vs cached) and decoded-trace pass")
	body := benchBody()
	rep.EmitUncached = statOf(testing.Benchmark(func(b *testing.B) {
		var buf []isa.Instr
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = body.EmitRequest(0, buf[:0])
		}
	}))
	cache := app.NewStreamCache(body)
	cache.Next(0)
	rep.EmitCached = statOf(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.Next(0)
		}
	}))
	rep.ExecuteTrace = statOf(testing.Benchmark(func(b *testing.B) {
		core := benchCore()
		tr := cache.Next(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.ExecuteTrace(tr)
		}
	}))

	width := runner.EffectiveWidth(0)
	fmt.Fprintf(os.Stderr, "bench: fig11 corner grid, pool width 1 vs %d\n", width)
	// The heatmap's four corners keep the artifact quick to regenerate.
	cores, freqs := []int{4, 16}, []float64{1.1, 2.1}
	gridOpt := opt
	gridOpt.Parallel = 1
	t0 := time.Now()
	experiments.RunFig11(discard{}, gridOpt, cores, freqs)
	rep.GridSerialSec = time.Since(t0).Seconds()
	rep.GridWidth = width
	if width > 1 {
		gridOpt.Parallel = width
		t0 = time.Now()
		experiments.RunFig11(discard{}, gridOpt, cores, freqs)
		rep.GridParallelSec = time.Since(t0).Seconds()
		if rep.GridParallelSec > 0 {
			s := rep.GridSerialSec / rep.GridParallelSec
			rep.Speedup = &s
		}
	} else {
		fmt.Fprintln(os.Stderr, "bench: pool width is 1; skipping the parallel run and omitting speedup")
	}

	// Intra-cell (sharded-engine) speedup: one closed-loop Social Network
	// cell over 5 machines (4 nodes + client), every machine its own shard,
	// advanced by 1 worker vs min(GOMAXPROCS, shards) workers. Closed loop
	// keeps every tier busy so each conservative window carries real work.
	const snNodes = 4
	intraWidth := runner.EffectiveWidth(0)
	if intraWidth > snNodes+1 {
		intraWidth = snNodes + 1 // one shard per machine; wider buys nothing
	}
	fmt.Fprintf(os.Stderr, "bench: social-network cell, shard workers 1 vs %d\n", intraWidth)
	snCell := func(intra int) float64 {
		t0 := time.Now()
		d := experiments.NewOriginalSN(platform.A(), snNodes, 8, opt.Seed+11, intra)
		load := experiments.Load{Conns: 64, Mix: experiments.SNMix(), Seed: opt.Seed}
		win := experiments.Windows{Warmup: 20 * sim.Millisecond, Measure: 200 * sim.Millisecond}
		experiments.MeasureSN(d, load, win, nil)
		d.Env.Shutdown()
		return time.Since(t0).Seconds()
	}
	rep.IntraWidth = intraWidth
	rep.IntraSerialSec = snCell(1)
	if intraWidth > 1 {
		rep.IntraParallelSec = snCell(intraWidth)
		if rep.IntraParallelSec > 0 {
			s := rep.IntraSerialSec / rep.IntraParallelSec
			rep.IntraSpeedup = &s
		}
	} else {
		fmt.Fprintln(os.Stderr, "bench: one core; skipping the wide shard run and omitting intra_speedup")
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	speedup := "n/a (width 1)"
	if rep.Speedup != nil {
		speedup = fmt.Sprintf("%.2fx at width %d", *rep.Speedup, rep.GridWidth)
	}
	sampledSpeedup := 0.0
	if rep.FigureCellSampled.NsPerOp > 0 {
		sampledSpeedup = rep.FigureCell.NsPerOp / rep.FigureCellSampled.NsPerOp
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (speedup %s, sampled cell %.2fx, engine allocs/op %.0f)\n",
		path, speedup, sampledSpeedup, rep.EngineAfterFunc.AllocsOp)
	return nil
}

// benchBody is the emission workload for the stream benchmarks: one
// parse-like phase with jittered length, the shape every app handler emits.
func benchBody() *app.PhaseBody {
	ph := app.NewPhase(app.PhaseSpec{
		Name: "bench-parse", MeanInstrs: 5000, JitterPct: 0.2, FootprintBytes: 16 << 10,
		Weights:     app.ClassWeights{Load: 0.3, Store: 0.1, ALU: 0.6},
		BranchFrac:  0.15,
		Branches:    []app.BranchMN{{M: 1, N: 2, Weight: 1}},
		WorkingSets: []app.WorkingSet{{Bytes: 4096, Frac: 0.5}, {Bytes: 1 << 20, Frac: 0.5}},
		RegularFrac: 0.5, DepChain: 2,
	}, 0x400000, 0x10000000, 7)
	return &app.PhaseBody{Phases: []*app.Phase{ph}}
}

// benchCore is a lone Skylake-like core with a private cache hierarchy for
// the decoded-trace benchmark.
func benchCore() *cpu.Core {
	l3 := cache.New(cache.Config{Name: "l3", Size: 8 << 20, Assoc: 16, Latency: 40, Policy: cache.PLRU})
	l1i := cache.New(cache.Config{Name: "l1i", Size: 32 << 10, Assoc: 8, Latency: 4, Policy: cache.LRU})
	l1d := cache.New(cache.Config{Name: "l1d", Size: 32 << 10, Assoc: 8, Latency: 4, Policy: cache.LRU})
	l2 := cache.New(cache.Config{Name: "l2", Size: 256 << 10, Assoc: 8, Latency: 12, Policy: cache.LRU})
	return cpu.NewCore(cpu.Config{Arch: cpu.Skylake, FreqGHz: 2,
		ICache: &cache.Hierarchy{Caches: [3]*cache.Cache{l1i, l2, l3}, MemLatency: 200},
		DCache: &cache.Hierarchy{Caches: [3]*cache.Cache{l1d, l2, l3}, MemLatency: 200}})
}

// discard is an io.Writer sink; the bench mode measures work, not output.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
