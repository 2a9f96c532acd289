package experiments

import (
	"io"

	"ditto/internal/platform"
	"ditto/internal/sim"
	"ditto/internal/stats"
)

// PhaseScan reproduces the §7.3 check: sample an application's IPC over
// consecutive sub-windows under steady load and quantify phase behaviour as
// the coefficient of variation. The paper reports no regular program phases
// at second-level granularity for these services; the same holds here at
// sub-window granularity because thousands of concurrent requests average
// any per-request phases out.
type PhaseScan struct {
	Samples []float64 // per-sub-window IPC
	Mean    float64
	CoV     float64 // stddev / mean
}

// RunPhaseScan measures an app's IPC time series: windows sub-windows of
// the given width each, after warmup.
func RunPhaseScan(w io.Writer, opt Options, build AppBuilder, load Load, windows int) PhaseScan {
	if opt.Windows.Measure == 0 {
		opt.Windows = DefaultWindows()
	}
	if windows <= 0 {
		windows = 10
	}
	env := NewEnvW(1, platform.A(), platform.WithCoreCount(8))
	a := build(env.Server)
	a.Start()
	appDeployment(env, a).startLoad(load)
	env.RunFor(opt.Windows.Warmup)

	var scan PhaseScan
	var agg stats.Running
	prev := a.Proc().Counters
	for i := 0; i < windows; i++ {
		env.RunFor(opt.Windows.Measure / sim.Time(windows))
		now := a.Proc().Counters
		d := deltaCounters(now, prev)
		prev = now
		ipc := d.IPC()
		scan.Samples = append(scan.Samples, ipc)
		agg.Add(ipc)
	}
	env.Shutdown()
	scan.Mean = agg.Mean()
	if scan.Mean > 0 {
		scan.CoV = agg.StdDev() / scan.Mean
	}
	if !opt.Quiet {
		row(w, "phases: app=%s mean-ipc=%.3f cov=%.3f samples=%d",
			a.Name(), scan.Mean, scan.CoV, len(scan.Samples))
	}
	return scan
}
