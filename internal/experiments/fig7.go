package experiments

import (
	"io"

	"ditto/internal/app"
	"ditto/internal/core"
	"ditto/internal/platform"
	"ditto/internal/profile"
	"ditto/internal/runner"
	"ditto/internal/synth"
)

// Fig7Row is one (app, platform, variant) measurement of the
// cross-platform validation: profiles are collected on Platform A only and
// the same synthetic binary runs unmodified on B and C, as §6.2.2 requires.
type Fig7Row struct {
	App      string
	Platform string
	Variant  string
	Metrics  profile.TargetMetrics
	NetBW    float64
	DiskBW   float64
	AvgMs    float64
	P99Ms    float64
}

// Fig7Result is the Fig. 7 table.
type Fig7Result struct {
	Rows []Fig7Row
}

// fig7CoreCount picks a comparable core allocation per platform.
func fig7CoreCount(spec platform.Spec) int {
	if spec.Cores < 8 {
		return spec.Cores
	}
	return 8
}

// RunFig7 reproduces Fig. 7: each app is cloned from a Platform A profile,
// then original and synthetic run side by side on Platforms A, B and C
// without reprofiling. Prep cells clone per app; each (platform, variant)
// pair is an independent measurement cell.
func RunFig7(w io.Writer, opt Options) Fig7Result {
	if opt.Windows.Measure == 0 {
		opt.Windows = DefaultWindows()
	}
	platforms := []platform.Spec{platform.A(), platform.B(), platform.C()}
	apps := filteredAppCases(opt)

	type fig7Prep struct {
		clonePrep
		spec *core.SynthSpec
	}
	p := runner.NewPlan()
	preps := map[string]*fig7Prep{}
	for _, c := range apps {
		c := c
		pr := &fig7Prep{}
		preps[c.name] = pr
		p.AddPrep(runner.Key("fig7", c.name, "clone"), func(io.Writer) (any, error) {
			pr.clonePrep = prepLevels(c, opt)
			_, pr.spec = cloneApp(c.build, mediumOf(pr.levels), opt.Windows, c.maxDWS, opt.TuneIters, opt.Seed+23, opt.Sampled)
			return nil, nil
		})
	}
	var snClone *SNClone
	snLoad := Load{QPS: 300, Conns: 12, Mix: SNMix(), Seed: opt.Seed}
	snWin := socialWindows(opt.Windows)
	if opt.IncludeSocial {
		p.AddPrep(runner.Key("fig7", "social", "clone"), func(io.Writer) (any, error) {
			snClone = CloneSN(platform.A(), 2, 8, snLoad, snWin, opt.Seed+53)
			return nil, nil
		})
	}
	p.Barrier()

	for _, c := range apps {
		c := c
		pr := preps[c.name]
		runner.Grid2(p, platforms, fig5Variants,
			func(plat platform.Spec, v string) string {
				return runner.Key("fig7", c.name, plat.Name, v)
			},
			func(plat platform.Spec, v string, cw io.Writer) (any, error) {
				load := mediumOf(pr.levels)
				if c.open {
					// Keep offered load sustainable on the weakest platform.
					load.QPS = pr.capacity * 0.3
				}
				build := c.build
				if v == "synthetic" {
					build = func(m *platform.Machine) app.App {
						return synth.NewServer(m, c.port, pr.spec, opt.Seed+29)
					}
				}
				r := measureApp(plat, []platform.Option{platform.WithCoreCount(fig7CoreCount(plat))},
					build, load, opt.Windows, opt.IntraParallel, opt.Sampled)
				fr := fig7Row(c.name, plat.Name, v, r)
				emitFig7(cw, opt, fr)
				return fr, nil
			})
	}

	// The two Social Network deployments the paper highlights: the two-node
	// Platform A reference and the small-scale Platform C where every tier
	// is colocated on one four-core box (high LLC interference).
	snDeploys := []struct {
		spec  platform.Spec
		nodes int
		cores int
	}{
		{platform.A(), 2, 8},
		{platform.C(), 1, 4},
	}
	if opt.IncludeSocial {
		for _, d := range snDeploys {
			d := d
			for _, v := range fig5Variants {
				v := v
				p.Add(runner.Key("fig7", "social", d.spec.Name, v), func(cw io.Writer) (any, error) {
					dep := deploySN(v, snClone, d.spec, d.nodes, d.cores, opt.Seed+53, opt.IntraParallel)
					if opt.Sampled {
						dep.Env.EnableSampling(snLoad.Seed)
					}
					_, per := MeasureSN(dep, snLoad, snWin, fig5SocialTiers)
					dep.Env.Shutdown()
					rows := make([]Fig7Row, 0, len(fig5SocialTiers))
					for _, tn := range fig5SocialTiers {
						fr := fig7Row(tn, d.spec.Name, v, per[tn])
						rows = append(rows, fr)
						emitFig7(cw, opt, fr)
					}
					return rows, nil
				})
			}
		}
	}

	var res Fig7Result
	results := runPlan(w, p, opt,
		"fig7: app platform variant ipc branchmiss l1i l1d l2 llc netBW diskBW avg p99")
	if results == nil {
		return res
	}
	for _, r := range results {
		switch v := r.Value.(type) {
		case Fig7Row:
			res.Rows = append(res.Rows, v)
		case []Fig7Row:
			res.Rows = append(res.Rows, v...)
		}
	}
	return res
}

func fig7Row(name, plat, variant string, r Result) Fig7Row {
	return Fig7Row{App: name, Platform: plat, Variant: variant, Metrics: r.Metrics,
		NetBW: r.NetBW, DiskBW: r.DiskBW, AvgMs: r.AvgMs, P99Ms: r.P99Ms}
}

func emitFig7(w io.Writer, opt Options, fr Fig7Row) {
	if opt.Quiet {
		return
	}
	row(w, "fig7: %-20s %-2s %-9s ipc=%.3f br=%.4f l1i=%.4f l1d=%.4f l2=%.4f llc=%.4f net=%.3e disk=%.3e avg=%.3f p99=%.3f",
		fr.App, fr.Platform, fr.Variant, fr.Metrics.IPC, fr.Metrics.BranchMiss,
		fr.Metrics.L1iMiss, fr.Metrics.L1dMiss, fr.Metrics.L2Miss,
		fr.Metrics.L3Miss, fr.NetBW, fr.DiskBW, fr.AvgMs, fr.P99Ms)
}
