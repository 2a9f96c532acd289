package experiments

import (
	"ditto/internal/app"
	"ditto/internal/core"
	"ditto/internal/dtrace"
	"ditto/internal/kernel"
	"ditto/internal/loadgen"
	"ditto/internal/platform"
	"ditto/internal/profile"
	"ditto/internal/sim"
	"ditto/internal/stats"
	"ditto/internal/synth"
)

// Deployment is one deployed service, original or synthetic, with the
// environment it runs in. The multi-tier families (Social Network, DittoFS)
// go through the same three operations: clone profiles a running original
// and generates its clone, deploySynth places the clone's synthetic tiers,
// and measure drives a deployment through its warmup and measurement
// windows. Single-tier apps share measure (see appDeployment).
type Deployment struct {
	Env      *Env
	Machines []*platform.Machine // server-side machines, frontend first
	Frontend *platform.Machine
	Port     int
	// Tiers maps logical (original) tier names to the deployed tiers — the
	// synthetic deployment is keyed by the original name it stands in for,
	// so one fault scenario addresses both deployments identically.
	Tiers     map[string]*app.Tier
	Order     []string
	Collector *dtrace.Collector
	client    string // load generator name
}

// TierProc returns the process of the named tier, or nil if it is absent.
func (d *Deployment) TierProc(name string) *kernel.Proc {
	if t := d.Tiers[name]; t != nil {
		return t.Proc()
	}
	return nil
}

// SetResilience installs one RPC resilience policy on every tier.
func (d *Deployment) SetResilience(r app.Resilience) {
	for _, t := range d.Tiers {
		t.Cfg.Resilience = r
	}
}

// newCluster builds an environment whose server machine is the first
// server-side machine and adds one machine per extra name, all of spec with
// cores cores each.
func newCluster(intra int, spec platform.Spec, cores int, extra ...string) (*Env, []*platform.Machine) {
	env := NewEnvW(intra, spec, platform.WithCoreCount(cores))
	machines := []*platform.Machine{env.Server}
	for _, name := range extra {
		machines = append(machines, env.AddMachine(name, spec, platform.WithCoreCount(cores)))
	}
	return env, machines
}

// startLoad starts a load generator against the deployment's frontend.
func (d *Deployment) startLoad(load Load) *loadgen.Generator {
	g := loadgen.New(loadgen.Config{
		Name: d.client, Machine: d.Env.Client, Target: d.Frontend.Kernel,
		Port: d.Port, Conns: load.Conns, QPS: load.QPS, Mix: load.Mix, Seed: load.Seed,
	})
	g.Start()
	return g
}

// measure drives the deployment under load: warmup (WarmupFor), then the
// measurement boundary — sampling armed, generator statistics reset, and
// boundary (if non-nil) called to take the caller's baseline readings —
// then the measurement window. It returns the generator, the window's start
// and its length in seconds. Without sampling, WarmupFor is exactly RunFor
// and ArmSampling is a no-op.
func (d *Deployment) measure(load Load, win Windows, boundary func()) (*loadgen.Generator, sim.Time, float64) {
	g := d.startLoad(load)
	d.Env.WarmupFor(win.Warmup)
	d.Env.ArmSampling()
	g.Reset()
	if boundary != nil {
		boundary()
	}
	start := d.Env.Now()
	d.Env.RunFor(win.Measure)
	return g, start, (d.Env.Now() - start).Seconds()
}

// setLatency fills r's latency fields from a latency distribution.
func setLatency(r *Result, lat *stats.Recorder) {
	r.AvgMs = lat.Mean()
	r.P50Ms = lat.Percentile(50)
	r.P95Ms = lat.Percentile(95)
	r.P99Ms = lat.Percentile(99)
}

// procResult is one process's counters, metrics, top-down split and
// network/disk bandwidth between two snapshots dur seconds apart.
func procResult(before, after snapshot, dur float64) Result {
	ctr := deltaCounters(after.ctr, before.ctr)
	r := Result{Counters: ctr, Metrics: metricsOf(ctr),
		NetBW:  float64(after.tx-before.tx+after.rx-before.rx) / dur,
		DiskBW: float64(after.disk-before.disk+after.diskW-before.diskW) / dur,
	}
	if ctr.Cycles > 0 {
		r.TopDown = [4]float64{ctr.Retiring / ctr.Cycles, ctr.Frontend / ctr.Cycles,
			ctr.BadSpec / ctr.Cycles, ctr.Backend / ctr.Cycles}
	}
	return r
}

// SNClone is the full set of artifacts Ditto extracts from one profiling
// run of a multi-tier deployment: per-tier profiles and specs plus the
// learned topology.
type SNClone struct {
	Profiles map[string]*profile.AppProfile
	Specs    map[string]*core.SynthSpec
	Plans    map[string]*core.TierPlan
	Order    []string
	Root     string
}

// clone profiles every tier of the running original d under load and
// generates the synthetic specs (§4.2: topology from traces; per-tier
// skeleton and body from the tier profilers), then shuts d down. root names
// the entry tier. The profiling run is one uninterrupted window of
// win.Warmup+win.Measure.
func clone(d *Deployment, root string, load Load, win Windows, seed int64) *SNClone {
	profilers := map[string]*profile.Profiler{}
	for _, name := range d.Order {
		p := profile.NewProfiler(name)
		p.MaxDataWS = 64 << 20
		p.MaxInstrWS = 256 << 10
		p.Attach(d.TierProc(name))
		profilers[name] = p
	}
	d.startLoad(load)
	d.Env.RunFor(win.Warmup + win.Measure)

	spans := d.Collector.Spans()
	plans := core.LearnTopology(spans)
	spanCount := map[string]int{}
	for _, s := range spans {
		spanCount[s.Service]++
	}

	c := &SNClone{
		Profiles: map[string]*profile.AppProfile{},
		Specs:    map[string]*core.SynthSpec{},
		Plans:    plans,
		Order:    append([]string(nil), d.Order...),
		Root:     root,
	}
	for i, name := range c.Order {
		p := profilers[name]
		if n := spanCount[name]; n > 0 {
			p.SetRequests(n)
		}
		prof := p.Finish()
		c.Profiles[name] = prof
		c.Specs[name] = core.Generate(prof, seed+int64(i)*31)
		if plans[name] == nil {
			plans[name] = &core.TierPlan{Service: name, Calls: map[int][]app.Call{}}
		}
	}
	d.Env.Shutdown()
	return c
}

// synthRegistry resolves original tier names to the synthetic tiers.
type synthRegistry struct {
	tiers map[string]*app.Tier
}

func (r *synthRegistry) Lookup(name string) (*kernel.Kernel, int) {
	t := r.tiers[name]
	return t.Machine().Kernel, t.Cfg.Port
}

// deploySynth deploys a clone's synthetic tiers on machines, round-robin in
// clone order, with one span collector, and starts them. client names the
// load generator measure starts.
func deploySynth(env *Env, machines []*platform.Machine, c *SNClone, seed int64, client string) *Deployment {
	reg := &synthRegistry{tiers: map[string]*app.Tier{}}
	collector := dtrace.NewCollector(1)
	for i, name := range c.Order {
		t := synth.NewTier(machines[i%len(machines)], 9500+i, c.Specs[name], c.Plans[name], reg, seed+int64(i))
		t.Collector = collector
		reg.tiers[name] = t
	}
	// Start in construction order: spawn order is part of determinism.
	for _, name := range c.Order {
		reg.tiers[name].Start()
	}
	fe := reg.tiers[c.Root]
	return &Deployment{Env: env, Machines: machines, Frontend: fe.Machine(), Port: fe.Cfg.Port,
		Tiers: reg.tiers, Order: append([]string(nil), c.Order...), Collector: collector, client: client}
}
