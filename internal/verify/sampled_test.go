package verify

import (
	"fmt"
	"testing"

	"ditto/internal/app"
	"ditto/internal/core"
	"ditto/internal/dtrace"
	"ditto/internal/experiments"
	"ditto/internal/platform"
	"ditto/internal/sim"
)

// TestVerifierAcceptsSampledProfiles re-runs the §4.4 conformance gate
// against profiles captured under sampled steady-state execution: every
// spec generated from a sampled profile must verify clean under the same
// tolerances as the fully executed profiles. A failure here means the
// sampler's observed/modeled bookkeeping (profile.Profiler's obsScale)
// drifted from the statistics the generator consumes.
func TestVerifierAcceptsSampledProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles four simulated applications; skipped in -short")
	}
	seeds := []int64{1, 2, 3}
	win := experiments.Windows{Warmup: 10 * sim.Millisecond, Measure: 40 * sim.Millisecond}
	load := experiments.Load{Conns: 8, Seed: 5}

	apps := []struct {
		name   string
		maxDWS int
		build  experiments.AppBuilder
	}{
		{"memcached", 128 << 20,
			func(m *platform.Machine) app.App { return app.NewMemcached(m, 11211, 21) }},
		{"nginx", 32 << 20,
			func(m *platform.Machine) app.App { return app.NewNginx(m, 80, 22) }},
		{"mongodb", 256 << 20,
			func(m *platform.Machine) app.App { return app.NewMongoDB(m, 27017, 23) }},
		{"redis", 128 << 20,
			func(m *platform.Machine) app.App { return app.NewRedis(m, 6379, 24) }},
	}
	tol := DefaultTolerances()
	for _, a := range apps {
		prof := experiments.ProfileRunSampled(a.build, load, win, a.maxDWS)
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", a.name, seed), func(t *testing.T) {
				spec := core.Generate(prof, seed)
				r := Spec(spec, prof, tol)
				if !r.OK() {
					t.Errorf("verification failed:\n%s", r)
				}
			})
		}
	}
}

// nginxRun measures a saturated single-tier NGINX — the workload behind
// the figure_cell benchmark, where the PR's 1% acceptance budget applies.
func nginxRun(t *testing.T, seed int64, sampled bool) SampledRun {
	t.Helper()
	env := experiments.NewEnvW(1, platform.A(), platform.WithCoreCount(8))
	if sampled {
		env.EnableSampling(seed)
	}
	a := app.NewNginx(env.Server, 80, seed+2)
	a.Start()
	load := experiments.Load{QPS: 60000, Conns: 16, Seed: seed}
	win := experiments.Windows{Warmup: 40 * sim.Millisecond, Measure: 160 * sim.Millisecond}
	res := experiments.Measure(env, a, load, win)
	env.Shutdown()
	return SampledRun{
		P50Ms: res.P50Ms, P95Ms: res.P95Ms, P99Ms: res.P99Ms,
		Goodput: res.Throughput,
	}
}

// snRun measures one Social Network deployment (original tiers, 2 nodes)
// and reduces it to the summary CheckSampled compares: end-to-end
// percentiles, goodput, and the call-graph edges of the measurement
// window's spans.
func snRun(t *testing.T, seed int64, sampled bool) SampledRun {
	t.Helper()
	d := experiments.NewOriginalSN(platform.A(), 2, 4, seed, 0)
	if sampled {
		d.Env.EnableSampling(seed)
	}
	load := experiments.Load{Conns: 32, Mix: experiments.SNMix(), Seed: seed}
	win := experiments.Windows{Warmup: 20 * sim.Millisecond, Measure: 60 * sim.Millisecond}
	e2e, _ := experiments.MeasureSN(d, load, win, nil)
	// MeasureSN's measurement window is the trailing win.Measure of the
	// run; edges are built from its spans only, so an early-exiting
	// sampled warmup cannot skew the counts.
	start := d.Env.Now() - win.Measure
	var spans []dtrace.Span
	for _, sp := range d.Collector.Spans() {
		if sp.Start >= start {
			spans = append(spans, sp)
		}
	}
	g := dtrace.BuildGraph(spans)
	d.Env.Shutdown()
	return SampledRun{
		P50Ms: e2e.P50Ms, P95Ms: e2e.P95Ms, P99Ms: e2e.P99Ms,
		Goodput: e2e.Throughput, Edges: g.Edges,
	}
}

// TestSampledErrorBudget is the table-driven full-vs-sampled drift gate:
// across three seeds per workload, a sampled run must stay inside its
// documented budget against the fully executed reference.
//
// The budgets differ by topology, deliberately. The single-tier open-loop
// path (the figure_cell workload the PR's acceptance bar measures) holds
// the tight DefaultSampledBudget: under 1% on p50/p95/p99 and goodput.
// The multi-tier closed-loop Social Network gets a 8% latency budget: its
// end-to-end percentiles are estimated from only ~300 requests per
// window (a ~5% standard error at p99), and modeled draws preserve
// latency autocorrelation within a tier but not across tiers, so chained
// tails drift by a few percent where the single-tier path does not.
func TestSampledErrorBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve full measurement runs; skipped in -short")
	}
	cases := []struct {
		name      string
		run       func(*testing.T, int64, bool) SampledRun
		budget    SampledBudget
		wantEdges bool
	}{
		{"nginx", nginxRun, DefaultSampledBudget(), false},
		{"socialnetwork", snRun,
			SampledBudget{LatencyRel: 0.08, GoodputRel: 0.01, EdgeRel: 0.03, EdgeAbs: 4}, true},
	}
	for _, c := range cases {
		for _, seed := range []int64{1, 2, 3} {
			c, seed := c, seed
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				full := c.run(t, seed, false)
				samp := c.run(t, seed, true)
				if c.wantEdges && len(full.Edges) == 0 {
					t.Fatal("full run produced no call-graph edges")
				}
				r := CheckSampled(fmt.Sprintf("sampled-%s-seed%d", c.name, seed), full, samp, c.budget)
				if !r.OK() {
					t.Errorf("drift beyond budget:\n%s", r)
				} else {
					t.Logf("within budget:\n%s", r)
				}
			})
		}
	}
}
