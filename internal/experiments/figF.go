package experiments

import (
	"fmt"
	"io"

	"ditto/internal/app"
	"ditto/internal/fault"
	"ditto/internal/platform"
	"ditto/internal/runner"
	"ditto/internal/sim"
)

// FigFPoint is one (scenario, variant) measurement of the resilience
// experiment: Social Network latency and error rate under injected faults,
// original versus clone.
type FigFPoint struct {
	Scenario string
	Variant  string
	P50Ms    float64
	P95Ms    float64
	P99Ms    float64
	Goodput  float64 // successful responses per second
	ErrRate  float64 // failed responses / received responses
	Dropped  uint64  // messages lost on faulted links
}

// FigFResult is the resilience-under-faults series.
type FigFResult struct {
	Points []FigFPoint
}

// figFScenario is one declarative fault scenario. Events are built against
// the deployment (so targets resolve by logical tier name on original and
// clone alike) and the windows (so fault times scale with the measurement).
type figFScenario struct {
	name  string
	build func(d *SNEnv, win Windows) []fault.Event
}

// figFScenarios returns the scenario table (EXPERIMENTS.md documents it).
// All faults start at measure/8 into the window; recovery points differ so
// the tail of every window observes the healed system.
func figFScenarios() []figFScenario {
	at := func(win Windows, num, den sim.Time) sim.Time {
		return win.Warmup + win.Measure*num/den
	}
	return []figFScenario{
		{"baseline", func(d *SNEnv, win Windows) []fault.Event { return nil }},
		{"crash-cache", func(d *SNEnv, win Windows) []fault.Event {
			return []fault.Event{
				{At: at(win, 1, 8), Op: fault.OpCrash, Tiers: []string{"post-storage-memcached"}},
				{At: at(win, 1, 2), Op: fault.OpRestart, Tiers: []string{"post-storage-memcached"}},
			}
		}},
		{"crash-logic", func(d *SNEnv, win Windows) []fault.Event {
			return []fault.Event{
				{At: at(win, 1, 8), Op: fault.OpCrash, Tiers: []string{"compose-post-service"}},
				{At: at(win, 1, 2), Op: fault.OpRestart, Tiers: []string{"compose-post-service"}},
			}
		}},
		{"partition", func(d *SNEnv, win Windows) []fault.Event {
			// Machine-granular cut between the frontend's machine and the
			// next machine in placement order — with round-robin placement
			// this severs roughly half the deployment.
			if len(d.Order) < 2 {
				return nil
			}
			return []fault.Event{
				{At: at(win, 1, 8), Op: fault.OpPartition,
					Tiers: []string{d.Order[0]}, TiersB: []string{d.Order[1]}},
				{At: at(win, 1, 2), Op: fault.OpHeal},
			}
		}},
		{"loss2", func(d *SNEnv, win Windows) []fault.Event {
			return []fault.Event{
				{At: at(win, 1, 8), Op: fault.OpLoss, Loss: 0.02},
				{At: at(win, 3, 4), Op: fault.OpHeal},
			}
		}},
		{"delay-spike", func(d *SNEnv, win Windows) []fault.Event {
			return []fault.Event{
				{At: at(win, 1, 8), Op: fault.OpDelay, Delay: 2 * sim.Millisecond},
				{At: at(win, 1, 2), Op: fault.OpHeal},
			}
		}},
		{"slow-replica", func(d *SNEnv, win Windows) []fault.Event {
			return []fault.Event{
				{At: at(win, 1, 8), Op: fault.OpSlowCPU,
					Tiers: []string{"social-graph-service"}, Throttle: 0.35},
				{At: at(win, 3, 4), Op: fault.OpHeal},
			}
		}},
	}
}

// figFPolicy is the RPC resilience policy every tier runs under in the
// resilience experiment: per-attempt timeouts with two retries, hedging at
// half the timeout, a consecutive-failure breaker, and queue-delay shedding.
func figFPolicy() app.Resilience {
	return app.Resilience{
		Timeout:        10 * sim.Millisecond,
		Retries:        2,
		Backoff:        500 * sim.Microsecond,
		HedgeAfter:     5 * sim.Millisecond,
		BreakerFails:   10,
		BreakerOpenFor: 10 * sim.Millisecond,
		ShedAfter:      25 * sim.Millisecond,
	}
}

// linkSeed derives a deterministic per-cell loss-stream seed from the base
// seed and the cell's scenario/variant names (FNV-1a over the key).
func linkSeed(seed int64, parts ...string) uint64 {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(fmt.Sprint(seed))
	for _, p := range parts {
		mix(p)
	}
	return h | 1
}

// measureSNFault deploys the fault plane over d, drives it, and measures
// latency, goodput, and error rate over the post-warmup window.
func measureSNFault(d *SNEnv, load Load, win Windows, sc figFScenario, seed uint64) FigFPoint {
	d.SetResilience(figFPolicy())
	fabric := fault.Interpose(d.Env.Cluster, d.Machines, seed)
	plane := fault.NewPlane(fabric, d.Tiers)
	plane.Schedule(fault.Scenario{Name: sc.name, Events: sc.build(d, win)})

	g, _, dur := d.measure(load, win, nil)
	lat := g.Latency()
	received, failed := g.Received(), g.Failed()
	pt := FigFPoint{
		Scenario: sc.name,
		P50Ms:    lat.Percentile(50),
		P95Ms:    lat.Percentile(95),
		P99Ms:    lat.Percentile(99),
		Goodput:  float64(received-failed) / dur,
		Dropped:  fabric.Dropped(),
	}
	if received > 0 {
		pt.ErrRate = float64(failed) / float64(received)
	}
	return pt
}

// RunFigF measures clone fidelity under failure: the original Social Network
// and its fully synthetic clone run the same resilience policy through the
// same deterministic fault scenarios, comparing p50/p95/p99, goodput, and
// error rate. One prep cell clones the deployment fault-free; each
// (scenario, variant) point is an independent cell, so the report is
// byte-identical at any -parallel width.
func RunFigF(w io.Writer, opt Options, qps float64) FigFResult {
	if opt.Windows.Measure == 0 {
		opt.Windows = DefaultWindows()
	}
	opt.Windows = socialWindows(opt.Windows)
	if qps <= 0 {
		qps = 600
	}
	nodes := snNodes(opt)
	scenarios := figFScenarios()

	p := runner.NewPlan()
	var clone *SNClone
	p.AddPrep(runner.Key("figF", "clone"), func(io.Writer) (any, error) {
		profLoad := Load{QPS: qps, Conns: 16, Mix: SNMix(), Seed: opt.Seed}
		clone = CloneSN(platform.A(), nodes, 8, profLoad, opt.Windows, opt.Seed+11)
		return nil, nil
	})
	p.Barrier()
	runner.Grid2(p, scenarios, fig5Variants,
		func(sc figFScenario, v string) string {
			return runner.Key("figF", sc.name, v)
		},
		func(sc figFScenario, v string, cw io.Writer) (any, error) {
			load := Load{QPS: qps, Conns: 16, Mix: SNMix(), Seed: opt.Seed}
			d := deploySN(v, clone, platform.A(), nodes, 8, opt.Seed+11, opt.IntraParallel)
			pt := measureSNFault(d, load, opt.Windows, sc, linkSeed(opt.Seed, sc.name, v))
			pt.Variant = v
			d.Env.Shutdown()
			if !opt.Quiet {
				row(cw, "figF: %-12s %-9s p50=%.3f p95=%.3f p99=%.3f goodput=%.0f err=%.2f%% drops=%d",
					pt.Scenario, pt.Variant, pt.P50Ms, pt.P95Ms, pt.P99Ms,
					pt.Goodput, pt.ErrRate*100, pt.Dropped)
			}
			return pt, nil
		})

	var res FigFResult
	results := runPlan(w, p, opt, "figF: scenario variant p50 p95 p99 goodput err% drops")
	if results == nil {
		return res
	}
	for _, r := range results {
		if pt, ok := r.Value.(FigFPoint); ok {
			res.Points = append(res.Points, pt)
		}
	}
	return res
}
