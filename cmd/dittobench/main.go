// Command dittobench regenerates the paper's evaluation artifacts: every
// table and figure of §6, printed as machine-readable rows. Figures execute
// as cell plans on a bounded worker pool; output is bit-identical at every
// -parallel width.
//
// Usage:
//
//	dittobench -run fig5 [-parallel 8] [-intra-parallel 4] [-tune 4] [-ms 160] [-seed 1] [-apps redis,nginx]
//	dittobench -run 'fig11/c4/.*'          # regex over cell names
//	dittobench -run all -progress
//	dittobench -bench-json BENCH_PR2.json  # perf baseline mode
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"

	"ditto/internal/app"
	"ditto/internal/experiments"
	"ditto/internal/platform"
	"ditto/internal/runner"
	"ditto/internal/sim"
)

func main() {
	var (
		run = flag.String("run", "all",
			"regexp over cell names (e.g. 'fig5/redis/.*'); experiment names (table1|fig5|...|phases) and 'all' also work")
		parallel = flag.Int("parallel", 0, "cell worker pool size (0 = GOMAXPROCS); any width yields identical output")
		intra    = flag.Int("intra-parallel", 0,
			"per-cell shard workers: each simulated machine gets its own event-queue shard advanced by up to this many threads (0 = one worker, same as 1; every width is byte-identical to every other)")
		progress = flag.Bool("progress", false, "report per-cell completions on stderr")
		tune     = flag.Int("tune", 3, "fine-tuning iterations per clone")
		ms       = flag.Int("ms", 160, "measurement window (simulated ms)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		apps     = flag.String("apps", "", "comma-separated app filter for fig5/7/8")
		quick    = flag.Bool("quick", false, "small windows, no tuning (smoke run)")
		sampled  = flag.Bool("sampled", false,
			"sampled steady-state execution: once per-tier convergence is detected, a seeded rotating subset of requests still executes while the rest are modeled from the measured distribution (warmup, fault windows, and durability paths always execute fully)")
		benchJSON = flag.String("bench-json", "",
			"write engine and cell benchmarks plus a parallel speedup measurement as JSON to this file, then exit")
	)
	flag.Parse()

	opt := experiments.Options{
		Windows: experiments.Windows{
			Warmup:  sim.Time(*ms/4) * sim.Millisecond,
			Measure: sim.Time(*ms) * sim.Millisecond,
		},
		TuneIters:     *tune,
		Seed:          *seed,
		IncludeSocial: true,
		Parallel:      *parallel,
		IntraParallel: *intra,
		Sampled:       *sampled,
	}
	if *apps != "" {
		opt.Apps = strings.Split(*apps, ",")
	}
	if *quick {
		opt.Windows = experiments.Windows{Warmup: 10 * sim.Millisecond, Measure: 50 * sim.Millisecond}
		opt.TuneIters = 0
		opt.IncludeSocial = false
	}
	if *progress {
		opt.Progress = func(done, total, failed int, r runner.CellResult) {
			status := ""
			if r.Err != nil {
				status = "  ERR"
			}
			errs := ""
			if failed > 0 {
				errs = fmt.Sprintf("  errs=%d", failed)
			}
			fmt.Fprintf(os.Stderr, "[%3d/%3d] %-40s %8.2fs%s%s\n",
				done, total, r.Name, r.Elapsed.Seconds(), status, errs)
		}
	}

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, opt); err != nil {
			fmt.Fprintf(os.Stderr, "dittobench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	w := os.Stdout
	if *run == "all" {
		experiments.RunTable1(w)
		for _, f := range figures(opt) {
			f(w)
		}
		return
	}

	re, err := regexp.Compile(*run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dittobench: bad -run regexp %q: %v\n", *run, err)
		os.Exit(2)
	}
	// table1 and phases are single-shot artifacts without plans; they run
	// when the pattern names them. Every plan-backed figure self-selects:
	// it runs exactly the cells the pattern matches and stays silent when
	// none do.
	if re.MatchString("table1") {
		experiments.RunTable1(w)
	}
	opt.CellFilter = re
	for _, f := range figures(opt) {
		f(w)
	}
	if re.MatchString("phases") {
		experiments.RunPhaseScan(w, opt, func(m *platform.Machine) app.App {
			return app.NewRedis(m, 6379, opt.Seed)
		}, experiments.Load{Conns: 8, Seed: opt.Seed}, 10)
	}
}

// figures lists the plan-backed artifact runners in paper order.
func figures(opt experiments.Options) []func(w *os.File) {
	return []func(w *os.File){
		func(w *os.File) { experiments.RunFig5(w, opt) },
		func(w *os.File) { experiments.RunFig6(w, opt, nil) },
		func(w *os.File) { experiments.RunFig7(w, opt) },
		func(w *os.File) { experiments.RunFig8(w, opt) },
		func(w *os.File) { experiments.RunFig9(w, opt) },
		func(w *os.File) { experiments.RunFig10(w, opt) },
		func(w *os.File) { experiments.RunFig11(w, opt, nil, nil) },
		func(w *os.File) { experiments.RunFigF(w, opt, 0) },
		func(w *os.File) { experiments.RunFigS(w, opt, 0) },
	}
}
