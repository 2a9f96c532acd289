package experiments

import (
	"io"

	"ditto/internal/app"
	"ditto/internal/core"
	"ditto/internal/platform"
	"ditto/internal/runner"
	"ditto/internal/synth"
)

// Fig8Row is one app × variant top-down CPI breakdown (retiring /
// front-end / bad speculation / back-end), scaled to CPI as in Fig. 8.
type Fig8Row struct {
	App      string
	Variant  string
	CPI      float64
	Retiring float64
	Frontend float64
	BadSpec  float64
	Backend  float64
}

// Fig8Result is the Fig. 8 dataset.
type Fig8Result struct {
	Rows []Fig8Row
}

// fig8Row converts a measurement's top-down fractions to CPI components.
func fig8Row(name, variant string, r Result) Fig8Row {
	cpi := r.Counters.CPI()
	return Fig8Row{App: name, Variant: variant, CPI: cpi,
		Retiring: r.TopDown[0] * cpi, Frontend: r.TopDown[1] * cpi,
		BadSpec: r.TopDown[2] * cpi, Backend: r.TopDown[3] * cpi}
}

// RunFig8 reproduces Fig. 8: the cycles-per-instruction top-down analysis
// of original vs synthetic at medium load for the four standalone apps plus
// the two highlighted Social Network tiers, as a cell plan (per-app clone
// prep, then one cell per app × variant).
func RunFig8(w io.Writer, opt Options) Fig8Result {
	if opt.Windows.Measure == 0 {
		opt.Windows = DefaultWindows()
	}
	apps := filteredAppCases(opt)
	nodes := snNodes(opt)
	snLoad := Load{QPS: 400, Conns: 12, Mix: SNMix(), Seed: opt.Seed}
	snWin := socialWindows(opt.Windows)

	type fig8Prep struct {
		clonePrep
		spec *core.SynthSpec
	}
	p := runner.NewPlan()
	preps := map[string]*fig8Prep{}
	for _, c := range apps {
		c := c
		pr := &fig8Prep{}
		preps[c.name] = pr
		p.AddPrep(runner.Key("fig8", c.name, "clone"), func(io.Writer) (any, error) {
			pr.clonePrep = prepLevels(c, opt)
			_, pr.spec = cloneApp(c.build, mediumOf(pr.levels), opt.Windows, c.maxDWS, opt.TuneIters, opt.Seed+41, opt.Sampled)
			return nil, nil
		})
	}
	var snClone *SNClone
	if opt.IncludeSocial {
		p.AddPrep(runner.Key("fig8", "social", "clone"), func(io.Writer) (any, error) {
			snClone = CloneSN(platform.A(), nodes, 8, snLoad, snWin, opt.Seed+47)
			return nil, nil
		})
	}
	p.Barrier()

	emit := func(cw io.Writer, fr Fig8Row) {
		if !opt.Quiet {
			row(cw, "fig8: %-20s %-9s cpi=%.3f ret=%.3f fe=%.3f bad=%.3f be=%.3f",
				fr.App, fr.Variant, fr.CPI, fr.Retiring, fr.Frontend, fr.BadSpec, fr.Backend)
		}
	}
	for _, c := range apps {
		c := c
		pr := preps[c.name]
		for _, v := range fig5Variants {
			v := v
			p.Add(runner.Key("fig8", c.name, v), func(cw io.Writer) (any, error) {
				build := c.build
				if v == "synthetic" {
					build = func(m *platform.Machine) app.App {
						return synth.NewServer(m, c.port, pr.spec, opt.Seed+43)
					}
				}
				r := measureApp(platform.A(), []platform.Option{platform.WithCoreCount(8)},
					build, mediumOf(pr.levels), opt.Windows, opt.IntraParallel, opt.Sampled)
				fr := fig8Row(c.name, v, r)
				emit(cw, fr)
				return fr, nil
			})
		}
	}
	if opt.IncludeSocial {
		for _, v := range fig5Variants {
			v := v
			p.Add(runner.Key("fig8", "social", v), func(cw io.Writer) (any, error) {
				d := deploySN(v, snClone, platform.A(), nodes, 8, opt.Seed+47, opt.IntraParallel)
				if opt.Sampled {
					d.Env.EnableSampling(snLoad.Seed)
				}
				_, per := MeasureSN(d, snLoad, snWin, fig5SocialTiers)
				d.Env.Shutdown()
				rows := make([]Fig8Row, 0, len(fig5SocialTiers))
				for _, tn := range fig5SocialTiers {
					fr := fig8Row(tn, v, per[tn])
					rows = append(rows, fr)
					emit(cw, fr)
				}
				return rows, nil
			})
		}
	}

	var res Fig8Result
	results := runPlan(w, p, opt, "fig8: app variant cpi retiring frontend badspec backend")
	if results == nil {
		return res
	}
	values := resultMap(results)
	for _, c := range apps {
		for _, v := range fig5Variants {
			if fr, ok := values[runner.Key("fig8", c.name, v)].(Fig8Row); ok {
				res.Rows = append(res.Rows, fr)
			}
		}
	}
	if opt.IncludeSocial {
		// The paper's ordering is tier-major: both variants of TextService,
		// then both of SocialGraphService.
		rowsO, okO := values[runner.Key("fig8", "social", "actual")].([]Fig8Row)
		rowsS, okS := values[runner.Key("fig8", "social", "synthetic")].([]Fig8Row)
		for ti := range fig5SocialTiers {
			if okO {
				res.Rows = append(res.Rows, rowsO[ti])
			}
			if okS {
				res.Rows = append(res.Rows, rowsS[ti])
			}
		}
	}
	return res
}
