package experiments

import (
	"fmt"
	"io"

	"ditto/internal/platform"
	"ditto/internal/runner"
)

// Fig6Point is one QPS level of the Social Network end-to-end latency
// comparison, original vs fully synthetic (every tier replaced).
type Fig6Point struct {
	QPS     float64
	Variant string
	P50Ms   float64
	P95Ms   float64
	P99Ms   float64
	Tput    float64
}

// Fig6Result is the Fig. 6 series.
type Fig6Result struct {
	Points []Fig6Point
}

// RunFig6 reproduces Fig. 6: end-to-end latency of the original Social
// Network versus the deployment where every individual microservice is
// replaced by its Ditto clone, across a QPS sweep. One prep cell clones the
// deployment; each (qps, variant) point is then an independent cell.
func RunFig6(w io.Writer, opt Options, qpsLevels []float64) Fig6Result {
	if opt.Windows.Measure == 0 {
		opt.Windows = DefaultWindows()
	}
	opt.Windows = socialWindows(opt.Windows)
	if len(qpsLevels) == 0 {
		qpsLevels = []float64{200, 500, 1000, 1500, 2000}
	}
	nodes := snNodes(opt)

	p := runner.NewPlan()
	var clone *SNClone
	p.AddPrep(runner.Key("fig6", "clone"), func(io.Writer) (any, error) {
		profLoad := Load{QPS: qpsLevels[len(qpsLevels)/2], Conns: 16, Mix: SNMix(), Seed: opt.Seed}
		clone = CloneSN(platform.A(), nodes, 8, profLoad, opt.Windows, opt.Seed+11)
		return nil, nil
	})
	p.Barrier()
	runner.Grid2(p, qpsLevels, fig5Variants,
		func(qps float64, v string) string {
			return runner.Key("fig6", fmt.Sprintf("qps%.0f", qps), v)
		},
		func(qps float64, v string, cw io.Writer) (any, error) {
			load := Load{QPS: qps, Conns: 16, Mix: SNMix(), Seed: opt.Seed}
			d := deploySN(v, clone, platform.A(), nodes, 8, opt.Seed+11, opt.IntraParallel)
			if opt.Sampled {
				d.Env.EnableSampling(load.Seed)
			}
			e2e, _ := MeasureSN(d, load, opt.Windows, nil)
			d.Env.Shutdown()
			pt := Fig6Point{QPS: qps, Variant: v, P50Ms: e2e.P50Ms,
				P95Ms: e2e.P95Ms, P99Ms: e2e.P99Ms, Tput: e2e.Throughput}
			if !opt.Quiet {
				row(cw, "fig6: qps=%-6.0f %-9s p50=%.3f p95=%.3f p99=%.3f tput=%.0f",
					pt.QPS, pt.Variant, pt.P50Ms, pt.P95Ms, pt.P99Ms, pt.Tput)
			}
			return pt, nil
		})

	var res Fig6Result
	results := runPlan(w, p, opt, "fig6: qps variant p50 p95 p99 tput")
	if results == nil {
		return res
	}
	for _, r := range results {
		if pt, ok := r.Value.(Fig6Point); ok {
			res.Points = append(res.Points, pt)
		}
	}
	return res
}
