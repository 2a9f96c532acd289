package experiments

import (
	"fmt"
	"io"
	"regexp"

	"ditto/internal/sim"

	"ditto/internal/app"
	"ditto/internal/core"
	"ditto/internal/platform"
	"ditto/internal/profile"
	"ditto/internal/runner"
	"ditto/internal/stats"
	"ditto/internal/synth"
)

// Fig5Row is one (application, load, variant) measurement of Fig. 5: the
// CPU metrics, network/disk bandwidth and latency percentiles the paper
// plots.
type Fig5Row struct {
	App     string
	Load    string
	Variant string // "actual" or "synthetic"
	Metrics profile.TargetMetrics
	NetBW   float64
	DiskBW  float64
	AvgMs   float64
	P95Ms   float64
	P99Ms   float64
	Tput    float64
	TopDown [4]float64
}

// Fig5Result aggregates the figure plus the §6.2.1 average-error table.
type Fig5Result struct {
	Rows      []Fig5Row
	AvgErrors map[string]float64
}

// Options sizes an experiment run: short windows for tests, longer with
// tuning for the benchmark harness.
type Options struct {
	Windows   Windows
	TuneIters int
	Seed      int64
	// Apps filters which single-tier apps run (nil = all four).
	Apps []string
	// IncludeSocial adds the TextService / SocialGraphService columns.
	IncludeSocial bool
	// SocialNodes is the machine count for the social network (default 2).
	SocialNodes int
	Quiet       bool
	// Parallel bounds the cell worker pool (0 = GOMAXPROCS). Results and
	// output are identical at every width; parallelism only buys wall
	// clock.
	Parallel int
	// IntraParallel sets per-cell (intra-simulation) parallelism: each
	// machine of a cell's cluster gets its own event-queue shard, advanced
	// by up to IntraParallel workers under conservative synchronization
	// (see sim.World). 0 means one worker, the same as 1; every width is
	// byte-identical to every other — width only changes how many OS
	// threads advance shards. When both Parallel and IntraParallel exceed
	// 1 the cell pool is divided by IntraParallel so the total thread
	// budget stays roughly constant.
	IntraParallel int
	// CellFilter restricts which plan cells run (nil = all). Prep cells a
	// surviving cell depends on are retained automatically.
	CellFilter *regexp.Regexp
	// Progress, when set, observes cell completions (e.g. for a stderr
	// ticker). It must not write to the figure writer.
	Progress func(done, total, failed int, r runner.CellResult)
	// Sampled enables steady-state sampled execution (internal/steady) in
	// measurement cells: converged request and kernel-stream variants
	// execute a rotating 1-in-N sample and model the rest from the measured
	// distribution. Opt-in per experiment; cloning/profiling preps, the
	// fault-plane figure (figF) and the storage figure (figS) always run
	// fully executed.
	Sampled bool
}

// DefaultOptions returns bench-grade settings.
func DefaultOptions() Options {
	return Options{Windows: DefaultWindows(), TuneIters: 4, Seed: 1}
}

// singleTierApps enumerates the four standalone applications with their
// builder, profiling/measurement loads and the client generator style the
// paper uses for each (open loop for Memcached/NGINX, closed loop YCSB for
// MongoDB/Redis).
type appCase struct {
	name   string
	build  AppBuilder
	open   bool
	port   int
	maxDWS int
}

func appCases(seed int64) []appCase {
	return []appCase{
		{name: "memcached", open: true, port: 11211, maxDWS: 128 << 20,
			build: func(m *platform.Machine) app.App { return app.NewMemcached(m, 11211, seed+1) }},
		{name: "nginx", open: true, port: 80, maxDWS: 32 << 20,
			build: func(m *platform.Machine) app.App { return app.NewNginx(m, 80, seed+2) }},
		{name: "mongodb", open: false, port: 27017, maxDWS: 256 << 20,
			build: func(m *platform.Machine) app.App { return app.NewMongoDB(m, 27017, seed+3) }},
		{name: "redis", open: false, port: 6379, maxDWS: 128 << 20,
			build: func(m *platform.Machine) app.App { return app.NewRedis(m, 6379, seed+4) }},
	}
}

// probeCapacity measures closed-loop saturation throughput for an app so
// open-loop load levels can be placed relative to it.
func probeCapacity(c appCase, win Windows, seed int64, sampled bool) float64 {
	// The probe saturates the server, the most expensive regime to
	// simulate; a short dedicated window is plenty for a throughput
	// estimate.
	probeWin := Windows{Warmup: 8 * sim.Millisecond, Measure: 25 * sim.Millisecond}
	if win.Measure < probeWin.Measure {
		probeWin = win
	}
	return measureApp(platform.A(), []platform.Option{platform.WithCoreCount(8)},
		c.build, Load{Conns: 32, Seed: seed}, probeWin, 0, sampled).Throughput
}

// LoadLevel names one point of an app's low/medium/high load sweep.
type LoadLevel struct {
	Name string
	Load Load
}

// loadLevels builds the low/medium/high loads for one app: fractions of
// probed capacity for open-loop clients, connection counts for closed-loop
// ones.
func loadLevels(c appCase, capacity float64, seed int64) []LoadLevel {
	if c.open {
		return []LoadLevel{
			{"low", Load{QPS: 0.25 * capacity, Conns: 16, Seed: seed}},
			{"medium", Load{QPS: 0.5 * capacity, Conns: 16, Seed: seed}},
			{"high", Load{QPS: 0.8 * capacity, Conns: 16, Seed: seed}},
		}
	}
	return []LoadLevel{
		{"low", Load{Conns: 2, Seed: seed}},
		{"medium", Load{Conns: 8, Seed: seed}},
		{"high", Load{Conns: 24, Seed: seed}},
	}
}

// mediumOf returns the medium (profiling) load.
func mediumOf(levels []LoadLevel) Load {
	return levels[1].Load
}

// fig5LevelNames is the canonical sweep order; cell names are static so
// plans can be built (and filtered) before any measurement runs.
var fig5LevelNames = []string{"low", "medium", "high"}

// fig5Variants orders the original/clone pair everywhere.
var fig5Variants = []string{"actual", "synthetic"}

// fig5SocialLoads is the Social Network sweep of Fig. 5.
func fig5SocialLoads(opt Options) []LoadLevel {
	return []LoadLevel{
		{"low", Load{QPS: 150, Conns: 12, Mix: SNMix(), Seed: opt.Seed}},
		{"medium", Load{QPS: 400, Conns: 12, Mix: SNMix(), Seed: opt.Seed}},
		{"high", Load{QPS: 800, Conns: 12, Mix: SNMix(), Seed: opt.Seed}},
	}
}

// fig5SocialTiers is the pair of microservices the paper highlights.
var fig5SocialTiers = []string{"text-service", "social-graph-service"}

// RunFig5 reproduces Fig. 5: CPU performance metrics, network and disk
// bandwidth, and latency under varying load across the six services, for
// the original and its Ditto clone. Every app is profiled only at medium
// load, exactly as in the paper. The measurement grid executes as a cell
// plan: one prep cell per app (capacity probe + full cloning pipeline),
// then one cell per app × load × variant after the barrier.
func RunFig5(w io.Writer, opt Options) Fig5Result {
	if opt.Windows.Measure == 0 {
		opt.Windows = DefaultWindows()
	}
	res := Fig5Result{AvgErrors: map[string]float64{}}
	apps := filteredAppCases(opt)
	nodes := snNodes(opt)
	snLoads := fig5SocialLoads(opt)
	snWin := socialWindows(opt.Windows)

	p := runner.NewPlan()
	preps := map[string]*struct {
		clonePrep
		spec *core.SynthSpec
	}{}
	for _, c := range apps {
		c := c
		pr := &struct {
			clonePrep
			spec *core.SynthSpec
		}{}
		preps[c.name] = pr
		p.AddPrep(runner.Key("fig5", c.name, "clone"), func(io.Writer) (any, error) {
			pr.clonePrep = prepLevels(c, opt)
			_, pr.spec = cloneApp(c.build, mediumOf(pr.levels), opt.Windows, c.maxDWS, opt.TuneIters, opt.Seed+17, opt.Sampled)
			return nil, nil
		})
	}
	var snClone *SNClone
	if opt.IncludeSocial {
		p.AddPrep(runner.Key("fig5", "social", "clone"), func(io.Writer) (any, error) {
			snClone = CloneSN(platform.A(), nodes, 8, snLoads[1].Load, snWin, opt.Seed+5)
			return nil, nil
		})
	}
	p.Barrier()

	for _, c := range apps {
		c := c
		pr := preps[c.name]
		for li, ln := range fig5LevelNames {
			li, ln := li, ln
			for _, v := range fig5Variants {
				v := v
				p.Add(runner.Key("fig5", c.name, ln, v), func(cw io.Writer) (any, error) {
					build := c.build
					if v == "synthetic" {
						build = func(m *platform.Machine) app.App {
							return synth.NewServer(m, c.port, pr.spec, opt.Seed+31)
						}
					}
					r := measureApp(platform.A(), []platform.Option{platform.WithCoreCount(8)},
						build, pr.levels[li].Load, opt.Windows, opt.IntraParallel, opt.Sampled)
					fr := fig5Row(c.name, ln, v, r)
					emitFig5(cw, opt, []Fig5Row{fr})
					return fr, nil
				})
			}
		}
	}
	if opt.IncludeSocial {
		for _, lv := range snLoads {
			lv := lv
			for _, v := range fig5Variants {
				v := v
				p.Add(runner.Key("fig5", "social", lv.Name, v), func(cw io.Writer) (any, error) {
					d := deploySN(v, snClone, platform.A(), nodes, 8, opt.Seed+5, opt.IntraParallel)
					if opt.Sampled {
						d.Env.EnableSampling(lv.Load.Seed)
					}
					_, per := MeasureSN(d, lv.Load, snWin, fig5SocialTiers)
					d.Env.Shutdown()
					rows := make([]Fig5Row, 0, len(fig5SocialTiers))
					for _, tn := range fig5SocialTiers {
						rows = append(rows, fig5Row(tn, lv.Name, v, per[tn]))
					}
					emitFig5(cw, opt, rows)
					return rows, nil
				})
			}
		}
	}

	results := runPlan(w, p, opt,
		"fig5: app load variant ipc branchmiss l1i l1d l2 llc netBW diskBW avg p95 p99 tput")
	if results == nil {
		return res
	}
	values := resultMap(results)

	errAgg := map[string]*stats.Recorder{}
	addErr := func(metric string, got, want float64) {
		r := errAgg[metric]
		if r == nil {
			r = &stats.Recorder{}
			errAgg[metric] = r
		}
		r.Add(stats.AbsPctErr(got, want))
	}
	collect := func(nameO, nameS string) {
		ro, okO := values[nameO].(Fig5Row)
		rs, okS := values[nameS].(Fig5Row)
		if okO {
			res.Rows = append(res.Rows, ro)
		}
		if okS {
			res.Rows = append(res.Rows, rs)
		}
		if okO && okS {
			accumulateErrors(addErr, ro, rs)
		}
	}
	for _, c := range apps {
		for _, ln := range fig5LevelNames {
			collect(runner.Key("fig5", c.name, ln, "actual"), runner.Key("fig5", c.name, ln, "synthetic"))
		}
	}
	if opt.IncludeSocial {
		for _, lv := range snLoads {
			rowsO, okO := values[runner.Key("fig5", "social", lv.Name, "actual")].([]Fig5Row)
			rowsS, okS := values[runner.Key("fig5", "social", lv.Name, "synthetic")].([]Fig5Row)
			for ti := range fig5SocialTiers {
				if okO {
					res.Rows = append(res.Rows, rowsO[ti])
				}
				if okS {
					res.Rows = append(res.Rows, rowsS[ti])
				}
				if okO && okS {
					accumulateErrors(addErr, rowsO[ti], rowsS[ti])
				}
			}
		}
	}

	for metric, rec := range errAgg {
		res.AvgErrors[metric] = rec.Mean()
	}
	if !opt.Quiet {
		row(w, "fig5-errors: %s", formatErrors(res.AvgErrors))
	}
	return res
}

func fig5Row(name, load, variant string, r Result) Fig5Row {
	return Fig5Row{App: name, Load: load, Variant: variant, Metrics: r.Metrics,
		NetBW: r.NetBW, DiskBW: r.DiskBW, AvgMs: r.AvgMs, P95Ms: r.P95Ms,
		P99Ms: r.P99Ms, Tput: r.Throughput, TopDown: r.TopDown}
}

func accumulateErrors(addErr func(string, float64, float64), ro, rs Fig5Row) {
	addErr("ipc", rs.Metrics.IPC, ro.Metrics.IPC)
	addErr("branch", rs.Metrics.BranchMiss, ro.Metrics.BranchMiss)
	addErr("l1i", rs.Metrics.L1iMiss, ro.Metrics.L1iMiss)
	addErr("l1d", rs.Metrics.L1dMiss, ro.Metrics.L1dMiss)
	addErr("l2", rs.Metrics.L2Miss, ro.Metrics.L2Miss)
	addErr("llc", rs.Metrics.L3Miss, ro.Metrics.L3Miss)
	if ro.NetBW > 0 {
		addErr("netbw", rs.NetBW/maxF(rs.Tput, 1), ro.NetBW/maxF(ro.Tput, 1))
	}
	if ro.DiskBW > 0 {
		addErr("diskbw", rs.DiskBW/maxF(rs.Tput, 1), ro.DiskBW/maxF(ro.Tput, 1))
	}
}

func emitFig5(w io.Writer, opt Options, rows []Fig5Row) {
	if opt.Quiet {
		return
	}
	for _, r := range rows {
		row(w, "fig5: %-20s %-6s %-9s ipc=%.3f br=%.4f l1i=%.4f l1d=%.4f l2=%.4f llc=%.4f net=%.3e disk=%.3e avg=%.3f p95=%.3f p99=%.3f tput=%.0f",
			r.App, r.Load, r.Variant, r.Metrics.IPC, r.Metrics.BranchMiss,
			r.Metrics.L1iMiss, r.Metrics.L1dMiss, r.Metrics.L2Miss, r.Metrics.L3Miss,
			r.NetBW, r.DiskBW, r.AvgMs, r.P95Ms, r.P99Ms, r.Tput)
	}
}

func formatErrors(errs map[string]float64) string {
	keys := []string{"ipc", "branch", "l1i", "l1d", "l2", "llc", "netbw", "diskbw"}
	s := ""
	for _, k := range keys {
		if v, ok := errs[k]; ok {
			s += fmt.Sprintf("%s=%.1f%% ", k, v)
		}
	}
	return s
}

func header(w io.Writer, opt Options, text string) {
	if !opt.Quiet {
		row(w, "# %s", text)
	}
}

func contains(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
