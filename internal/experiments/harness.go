// Package experiments reproduces every table and figure of the paper's
// evaluation (§6): shared measurement harness plus one Run function per
// artifact, each printing the same rows/series the paper reports. The cmd/
// dittobench binary and the repository's benchmarks call into this package.
package experiments

import (
	"fmt"
	"io"

	"ditto/internal/app"
	"ditto/internal/core"
	"ditto/internal/cpu"
	"ditto/internal/kernel"
	"ditto/internal/loadgen"
	"ditto/internal/platform"
	"ditto/internal/profile"
	"ditto/internal/sim"
	"ditto/internal/steady"
	"ditto/internal/synth"
)

// Env is one self-contained simulation environment: a server machine and a
// client machine joined by a cluster fabric, plus any server machines a
// multi-tier Deployment adds (AddMachine). Every machine owns an
// event-queue shard of one World; drive the environment through the Env
// methods (RunFor/RunUntil/Now).
type Env struct {
	World   *sim.World // conservative-parallel engine, one shard per machine
	Cluster *platform.Cluster
	Server  *platform.Machine
	Client  *platform.Machine
	extra   []*platform.Machine

	samplers []*steady.Sampler // installed by EnableSampling, held until ArmSampling
}

// NewEnvW builds an environment on the given server platform with the given
// intra-cell parallelism: every machine gets its own event-queue shard of a
// World advanced by up to intra workers (intra ≤ 1 means one worker), with
// the cluster's minimum one-way delay as the conservative lookahead. Results
// are byte-identical at every width — width only changes how many OS
// threads advance shards. The client runs on a generously sized Platform A
// box so it never bottlenecks.
func NewEnvW(intra int, spec platform.Spec, serverOpts ...platform.Option) *Env {
	const rtt = 100 * sim.Microsecond
	e := &Env{World: sim.NewWorld(rtt/2, intra), Cluster: platform.NewCluster(rtt)}
	e.Server = platform.NewMachine(e.World.NewShard(), "server", spec, serverOpts...)
	e.Client = platform.NewMachine(e.World.NewShard(), "client", platform.A(), platform.WithCoreCount(16))
	e.Cluster.Add(e.Server)
	e.Cluster.Add(e.Client)
	return e
}

// AddMachine attaches another server machine to the environment (multi-node
// microservice deployments).
func (e *Env) AddMachine(name string, spec platform.Spec, opts ...platform.Option) *platform.Machine {
	m := platform.NewMachine(e.World.NewShard(), name, spec, opts...)
	e.Cluster.Add(m)
	e.extra = append(e.extra, m)
	return m
}

// EnableSampling installs a steady-state sampler (internal/steady) on every
// machine kernel of the environment, switching converged request and
// kernel-stream variants to sampled execution. Each kernel gets its own
// sampler — samplers are per shard, so the conservative-parallel engine
// never shares sampler state across threads — seeded from seed plus the
// machine's position, so repeated runs and both parallelism axes draw
// byte-identical sequences.
//
// The samplers start held: warmup is never sampled, so every request
// executes fully (while the detector and distributions learn) until the
// measurement harness calls ArmSampling at the warmup/measure boundary.
func (e *Env) EnableSampling(seed int64) {
	install := func(m *platform.Machine, s *steady.Sampler) {
		s.Hold()
		m.Kernel.SetSampler(s)
		e.samplers = append(e.samplers, s)
	}
	install(e.Server, steady.NewDefault(seed+101))
	install(e.Client, steady.NewDefault(seed+202))
	for i, m := range e.extra {
		install(m, steady.NewDefault(seed+303+int64(i)))
	}
}

// ArmSampling arms every held sampler; a no-op when sampling is not
// enabled. Deployment.measure calls it after the warmup window, so modeled
// execution begins exactly at the measurement boundary.
func (e *Env) ArmSampling() {
	for _, s := range e.samplers {
		s.Arm()
	}
}

// steadyWarmupShare is the fraction of sampler-eligible traffic that must
// belong to steady groups before a sampled warmup may end early.
const steadyWarmupShare = 0.85

// WarmupFor advances the environment through a warmup window. Without
// sampling it is exactly RunFor(budget). With sampling enabled, warmup is
// still never modeled (samplers are held), but budget becomes an upper
// bound: the run advances in fixed slices and stops as soon as every
// sampler certifies that at least steadyWarmupShare of its traffic is
// steady — warmup exists to reach steady state, and the detector can
// certify that directly instead of burning the full time budget. Slice
// boundaries are fixed fractions of the budget and sampler state is
// deterministic at each boundary, so early exit is deterministic too, at
// every parallelism width.
func (e *Env) WarmupFor(budget sim.Time) {
	if len(e.samplers) == 0 || budget <= 0 {
		e.RunFor(budget)
		return
	}
	const slices = 8
	slice := budget / slices
	if slice <= 0 {
		e.RunFor(budget)
		return
	}
	for i := 0; i < slices; i++ {
		e.RunFor(slice)
		converged := true
		for _, s := range e.samplers {
			if s.SteadyShare() < steadyWarmupShare {
				converged = false
				break
			}
		}
		if converged {
			return
		}
	}
	e.RunFor(budget - slices*slice) // integer-division remainder
}

// RunFor advances the environment's virtual time by d.
func (e *Env) RunFor(d sim.Time) { e.World.RunFor(d) }

// RunUntil advances the environment's virtual time to exactly t.
func (e *Env) RunUntil(t sim.Time) { e.World.RunUntil(t) }

// Now returns the environment's virtual time.
func (e *Env) Now() sim.Time { return e.World.Now() }

// Shutdown stops every kernel and drains the engine, releasing thread
// goroutines.
func (e *Env) Shutdown() {
	e.Server.Kernel.Stop()
	e.Client.Kernel.Stop()
	for _, m := range e.extra {
		m.Kernel.Stop()
	}
	e.World.Run()
}

// Load describes one measurement's load configuration.
type Load struct {
	QPS   float64 // 0 = closed loop
	Conns int
	Mix   []loadgen.MixEntry
	Seed  int64
}

// Windows controls warmup and measurement durations.
type Windows struct {
	Warmup  sim.Time
	Measure sim.Time
}

// DefaultWindows is sized so that every app completes hundreds to thousands
// of requests per measurement.
func DefaultWindows() Windows {
	return Windows{Warmup: 40 * sim.Millisecond, Measure: 160 * sim.Millisecond}
}

// Result is one measured run.
type Result struct {
	Counters   cpu.Counters
	Metrics    profile.TargetMetrics
	TopDown    [4]float64 // retiring, frontend, badspec, backend (fractions of cycles)
	AvgMs      float64
	P50Ms      float64
	P95Ms      float64
	P99Ms      float64
	Throughput float64 // completed requests per second
	NetBW      float64 // server bytes/s (tx+rx)
	DiskBW     float64 // server disk bytes/s (read+write)
}

// snapshot captures the per-proc counters needed for deltas.
type snapshot struct {
	ctr   cpu.Counters
	tx    uint64
	rx    uint64
	disk  uint64
	diskW uint64
}

func snap(p *kernel.Proc) snapshot {
	return snapshot{ctr: p.Counters, tx: p.NetTxBytes, rx: p.NetRxBytes,
		disk: p.DiskReadBytes, diskW: p.DiskWritten}
}

// deltaCounters subtracts counter snapshots.
func deltaCounters(now, base cpu.Counters) cpu.Counters {
	d := now
	d.Instrs -= base.Instrs
	d.KernelInstrs -= base.KernelInstrs
	d.Uops -= base.Uops
	d.Cycles -= base.Cycles
	d.Branches -= base.Branches
	d.Mispred -= base.Mispred
	d.L1iAcc -= base.L1iAcc
	d.L1iMiss -= base.L1iMiss
	d.L1dAcc -= base.L1dAcc
	d.L1dMiss -= base.L1dMiss
	d.L2Acc -= base.L2Acc
	d.L2Miss -= base.L2Miss
	d.L3Acc -= base.L3Acc
	d.L3Miss -= base.L3Miss
	d.MemAcc -= base.MemAcc
	d.LoadBytes -= base.LoadBytes
	d.StoreBytes -= base.StoreBytes
	d.Retiring -= base.Retiring
	d.Frontend -= base.Frontend
	d.BadSpec -= base.BadSpec
	d.Backend -= base.Backend
	return d
}

// metricsOf converts counters to the calibrated metric vector.
func metricsOf(c cpu.Counters) profile.TargetMetrics {
	return profile.TargetMetrics{
		IPC:         c.IPC(),
		BranchMiss:  c.BranchMissRate(),
		L1iMiss:     c.L1iMissRate(),
		L1dMiss:     c.L1dMissRate(),
		L2Miss:      c.L2MissRate(),
		L3Miss:      c.L3MissRate(),
		KernelShare: c.KernelShare(),
	}
}

// measureApp is the standard single-tier measurement cell body: build an
// environment on spec with intra shard workers, start the app build
// returns, measure it under load, and tear the environment down. Every
// state it touches is freshly constructed, which is what makes cells safe
// to run concurrently.
// sampled enables steady-state sampled execution for the measurement: the
// warmup window doubles as the detector's convergence run (a variant only
// starts modeling after Window×Stable full executions), so the measured
// window sees converged sampling.
func measureApp(spec platform.Spec, opts []platform.Option, build AppBuilder, load Load, win Windows, intra int, sampled bool) Result {
	env := NewEnvW(intra, spec, opts...)
	if sampled {
		env.EnableSampling(load.Seed)
	}
	a := build(env.Server)
	a.Start()
	r := Measure(env, a, load, win)
	env.Shutdown()
	return r
}

// appDeployment is the single-tier deployment of app a on env.Server.
func appDeployment(env *Env, a app.App) *Deployment {
	return &Deployment{Env: env, Frontend: a.Machine(), Port: a.Port(), client: "lg"}
}

// Measure drives app a (already started on env.Server) with the given load
// and returns a Result measured over the post-warmup window.
func Measure(env *Env, a app.App, load Load, win Windows) Result {
	var before snapshot
	g, _, dur := appDeployment(env, a).measure(load, win, func() { before = snap(a.Proc()) })
	res := procResult(before, snap(a.Proc()), dur)
	setLatency(&res, g.Latency())
	res.Throughput = float64(g.Received()) / dur
	return res
}

// socialWindows stretches the measurement window for social-network runs:
// their QPS is low (so tails need more samples) while their simulation cost
// per simulated second is far below a saturated single-tier server's.
func socialWindows(w Windows) Windows {
	w.Measure *= 3
	return w
}

// AppBuilder constructs an application on a machine.
type AppBuilder func(m *platform.Machine) app.App

// ProfileRun executes a dedicated profiling run of the original application
// on Platform A under the given load and returns its AppProfile — the
// paper's "profile once at medium load".
func ProfileRun(build AppBuilder, load Load, win Windows, maxDataWS int) *profile.AppProfile {
	return profileRun(build, load, win, maxDataWS, false)
}

// ProfileRunSampled is ProfileRun under sampled steady-state execution —
// the profiling window models converged request variants and scales the
// observed absolutes back up (see profile.Profiler). Exposed so the §4.4
// conformance gate can re-run against sampled profiles.
func ProfileRunSampled(build AppBuilder, load Load, win Windows, maxDataWS int) *profile.AppProfile {
	return profileRun(build, load, win, maxDataWS, true)
}

// profileRun is ProfileRun with an opt-in sampled profiling window. The
// profile quantities synthesis consumes — instruction-mix fractions, miss
// and dependency rates, working-set curves — are ratios over observed
// instructions, so the SMARTS argument that justifies sampled measurement
// carries over: the warmup executes fully (samplers are held), and the
// detailed windows that execute after arming preserve every profiled rate
// while the modeled stretch skips work the profile has already seen.
func profileRun(build AppBuilder, load Load, win Windows, maxDataWS int, sampled bool) *profile.AppProfile {
	env := NewEnvW(1, platform.A(), platform.WithCoreCount(8))
	if sampled {
		env.EnableSampling(load.Seed)
	}
	a := build(env.Server)
	a.Start()
	p := profile.NewProfiler(a.Name())
	if maxDataWS > 0 {
		p.MaxDataWS = maxDataWS
	}
	p.Attach(a.Proc())
	appDeployment(env, a).measure(load, win, nil)
	prof := p.Finish()
	env.Shutdown()
	return prof
}

// SynthRunner returns a core.Runner that measures candidate specs on
// Platform A under the reference load — the fine-tuner's measurement arm.
func SynthRunner(load Load, win Windows) core.Runner {
	return func(spec *core.SynthSpec) profile.TargetMetrics {
		build := func(m *platform.Machine) app.App { return synth.NewServer(m, 9100, spec, load.Seed+99) }
		return measureApp(platform.A(), []platform.Option{platform.WithCoreCount(8)}, build, load, win, 1, false).Metrics
	}
}

// Clone profiles the original app, generates a synthetic spec, and
// fine-tunes it (§4.5) — the complete Ditto pipeline for a single-tier app.
func Clone(build AppBuilder, load Load, win Windows, maxDataWS int, tuneIters int, seed int64) (*profile.AppProfile, *core.SynthSpec) {
	return cloneApp(build, load, win, maxDataWS, tuneIters, seed, false)
}

// cloneApp is Clone with an opt-in sampled profiling run. Fine-tuning
// iterations always measure candidates at full fidelity: the tuner chases
// sub-percent metric deltas, so its measurement arm is never sampled.
func cloneApp(build AppBuilder, load Load, win Windows, maxDataWS int, tuneIters int, seed int64, sampled bool) (*profile.AppProfile, *core.SynthSpec) {
	prof := profileRun(build, load, win, maxDataWS, sampled)
	if tuneIters <= 0 {
		return prof, core.Generate(prof, seed)
	}
	spec, _ := core.FineTune(prof, seed, SynthRunner(load, win), tuneIters, 0.05)
	return prof, spec
}

// row prints one aligned data row.
func row(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format+"\n", args...)
}
