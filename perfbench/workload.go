package main

import (
	"fmt"
	"time"

	"ditto/internal/app"
	"ditto/internal/core"
	"ditto/internal/dtrace"
	"ditto/internal/experiments"
	"ditto/internal/kernel"
	"ditto/internal/loadgen"
	"ditto/internal/platform"
	"ditto/internal/profile"
	"ditto/internal/sim"
	"ditto/internal/synth"
)

// shardWidth is the sharded engine's worker count for every replay. The
// host has few cores and the benchmark runs one cell at a time, so one
// worker advances every shard; simulated connection counts are model
// inputs, not host threads.
const shardWidth = 1

// heldOut offsets the replay load seed from the profiling load seed, so the
// clone's error is measured on traffic that was not used to build it.
const heldOut = 1_000_003

// size scales a workload's simulated windows. Benchmark runs use full; the
// benchmark's own tests use small.
type size int

const (
	full size = iota
	small
)

// artifact is everything the cloning phase produces for one workload.
type artifact struct {
	profiles map[string]*profile.AppProfile
	specs    map[string]*core.SynthSpec
	sn       *experiments.SNClone // multi-tier workloads only
	tuneS    float64              // host seconds inside core.FineTune (redis only)
}

// deployment is one deployed variant (original or clone) of a workload,
// reduced to what the replay driver and the counters need.
type deployment struct {
	env       *experiments.Env
	target    *kernel.Kernel
	port      int
	procs     []*kernel.Proc      // server-side processes
	machines  []*platform.Machine // server-side machines
	collector *dtrace.Collector   // nil when the deployment records no spans
}

// workload is one clone-and-replay pipeline.
type workload struct {
	name string
	// clone profiles the original and generates its clone.
	clone func(seed int64, sz size, sp *spans) artifact
	// deploy constructs and starts one variant on the sharded engine.
	deploy func(a artifact, variant string, seed int64, sp *spans) *deployment
	// passes is how many clones an untraced run always makes, each from
	// its own sub-seed. Clone quality and cloning cost differ from seed to
	// seed; a run reports the median cost of all its clones and the mean
	// fidelity of these, so that runs of different seeds agree within the
	// benchmark's bounds.
	passes int
	// profileLoad is the load the clone is built from; replayLoad is the
	// held-out load both variants are replayed under.
	profileLoad func(seed int64) experiments.Load
	replayLoad  func(seed int64) experiments.Load
	// profileWindows size the cloning phase's runs; replayWindows size
	// each replay of a variant.
	profileWindows func(sz size) experiments.Windows
	replayWindows  func(sz size) experiments.Windows
	// clientName is the load generator's process name, as the matching
	// experiments.Measure* function names it.
	clientName string
	// sampled replays under sampled steady-state execution.
	sampled bool
	// backlog bounds the requests still in flight at the end of an
	// open-loop window; closed loops are bounded by their connection count.
	backlog int
}

// inflightBound is the most requests a replay may leave unanswered.
func (w *workload) inflightBound() int {
	if l := w.replayLoad(0); l.QPS <= 0 {
		return l.Conns
	}
	return w.backlog
}

const (
	actual    = "actual"
	synthetic = "synthetic"
)

var variants = []string{actual, synthetic}

func workloads() []*workload {
	return []*workload{redisWorkload(), socialnetWorkload(), dittofsWorkload()}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want redis, socialnet or dittofs)", name)
}

// redisWorkload: single-tier Redis under a closed loop (the YCSB role),
// cloned at the paper's medium level with a small fine-tuner budget and
// replayed in full detail.
func redisWorkload() *workload {
	// The tuner's tolerance is set below any error it can reach, so it
	// always spends its whole budget and clone_s does not jump between
	// seeds whose first candidate happens to land within tolerance.
	const port, synthPort, maxDataWS, tuneIters, tuneTol = 6379, 9100, 128 << 20, 2, 1e-9
	build := func(seed int64) experiments.AppBuilder {
		return func(m *platform.Machine) app.App { return app.NewRedis(m, port, seed+4) }
	}
	w := &workload{
		name:        "redis",
		profileLoad: func(seed int64) experiments.Load { return experiments.Load{Conns: 8, Seed: seed} },
		replayLoad:  func(seed int64) experiments.Load { return experiments.Load{Conns: 16, Seed: seed + heldOut} },
		clientName:  "lg",
		passes:      3,
	}
	w.profileWindows = func(sz size) experiments.Windows {
		if sz == small {
			return experiments.Windows{Warmup: 4 * sim.Millisecond, Measure: 8 * sim.Millisecond}
		}
		return experiments.Windows{Warmup: 5 * sim.Millisecond, Measure: 15 * sim.Millisecond}
	}
	w.replayWindows = w.profileWindows
	w.clone = func(seed int64, sz size, sp *spans) artifact {
		load, win := w.profileLoad(seed), w.profileWindows(sz)
		var prof *profile.AppProfile
		sp.do("experiments.ProfileRun", func() {
			prof = experiments.ProfileRun(build(seed), load, win, maxDataWS)
		})
		measure := experiments.SynthRunner(load, win)
		var spec *core.SynthSpec
		tuneS := elapsed(func() {
			sp.do("core.FineTune", func() {
				spec, _ = core.FineTune(prof, seed+17, func(s *core.SynthSpec) profile.TargetMetrics {
					var m profile.TargetMetrics
					sp.do("experiments.SynthRunner", func() { m = measure(s) })
					return m
				}, tuneIters, tuneTol)
			})
		})
		return artifact{
			profiles: map[string]*profile.AppProfile{"redis": prof},
			specs:    map[string]*core.SynthSpec{"redis": spec},
			tuneS:    tuneS,
		}
	}
	w.deploy = func(a artifact, variant string, seed int64, sp *spans) *deployment {
		var env *experiments.Env
		sp.do("experiments.NewEnvW", func() {
			env = experiments.NewEnvW(shardWidth, platform.A(), platform.WithCoreCount(8))
		})
		var srv app.App
		if variant == actual {
			sp.do("app.NewRedis", func() { srv = build(seed)(env.Server) })
		} else {
			sp.do("synth.NewServer", func() { srv = synth.NewServer(env.Server, synthPort, a.specs["redis"], seed+31) })
		}
		sp.do("app.App.Start", srv.Start)
		return &deployment{env: env, target: srv.Machine().Kernel, port: srv.Port(),
			procs: []*kernel.Proc{srv.Proc()}, machines: []*platform.Machine{env.Server}}
	}
	return w
}

// socialnetWorkload: the 4-node Social Network under the SNMix open-loop
// Poisson mix, well below saturation, cloned from traces and replayed with
// sampled steady-state execution.
func socialnetWorkload() *workload {
	const nodes, coresPer, qps = 4, 8, 1000
	w := &workload{
		name: "socialnet",
		profileLoad: func(seed int64) experiments.Load {
			return experiments.Load{QPS: qps, Conns: 16, Mix: experiments.SNMix(), Seed: seed}
		},
		replayLoad: func(seed int64) experiments.Load {
			return experiments.Load{QPS: qps, Conns: 16, Mix: experiments.SNMix(), Seed: seed + heldOut}
		},
		clientName: "wrk2",
		passes:     6,
		sampled:    true,
		backlog:    256,
	}
	w.profileWindows = func(sz size) experiments.Windows {
		if sz == small {
			return experiments.Windows{Warmup: 10 * sim.Millisecond, Measure: 20 * sim.Millisecond}
		}
		return experiments.Windows{Warmup: 40 * sim.Millisecond, Measure: 120 * sim.Millisecond}
	}
	// Replay windows are longer than profiling ones: at this rate a window
	// needs hundreds of milliseconds for a p99 over enough requests, and
	// sampled replay is cheap per simulated second.
	w.replayWindows = func(sz size) experiments.Windows {
		if sz == small {
			return experiments.Windows{Warmup: 10 * sim.Millisecond, Measure: 40 * sim.Millisecond}
		}
		return experiments.Windows{Warmup: 40 * sim.Millisecond, Measure: 400 * sim.Millisecond}
	}
	w.clone = func(seed int64, sz size, sp *spans) artifact {
		var c *experiments.SNClone
		sp.do("experiments.CloneSN", func() {
			c = experiments.CloneSN(platform.A(), nodes, coresPer, w.profileLoad(seed), w.profileWindows(sz), seed+11)
		})
		return artifact{profiles: c.Profiles, specs: c.Specs, sn: c}
	}
	w.deploy = func(a artifact, variant string, seed int64, sp *spans) *deployment {
		var d *experiments.SNEnv
		if variant == actual {
			sp.do("experiments.NewOriginalSN", func() {
				d = experiments.NewOriginalSN(platform.A(), nodes, coresPer, seed+11, shardWidth)
			})
		} else {
			sp.do("experiments.NewSynthSN", func() {
				d = experiments.NewSynthSN(a.sn, platform.A(), nodes, coresPer, seed+12, shardWidth)
			})
		}
		return tiered(d.Env, d.Frontend, d.Port, d.Machines, d.Order, d.TierProc, d.Collector)
	}
	return w
}

// dittofsWorkload: DittoFS on the lsm backend under the FSMix closed loop,
// with a 64 MB page cache below the dataset, in full detail.
func dittofsWorkload() *workload {
	const backend, conns = "lsm", 12
	w := &workload{
		name: "dittofs",
		profileLoad: func(seed int64) experiments.Load {
			return experiments.Load{Conns: conns, Mix: loadgen.FSMix(), Seed: seed}
		},
		replayLoad: func(seed int64) experiments.Load {
			return experiments.Load{Conns: conns, Mix: loadgen.FSMix(), Seed: seed + heldOut}
		},
		clientName: "fs-client",
		passes:     5,
	}
	// Profiling windows are shorter than replay ones: the working-set
	// simulation makes profiling the costly half of a pass, and a shorter
	// profile leaves time for more clones per run.
	w.profileWindows = func(sz size) experiments.Windows {
		if sz == small {
			return experiments.Windows{Warmup: 5 * sim.Millisecond, Measure: 10 * sim.Millisecond}
		}
		return experiments.Windows{Warmup: 10 * sim.Millisecond, Measure: 40 * sim.Millisecond}
	}
	w.replayWindows = func(sz size) experiments.Windows {
		if sz == small {
			return experiments.Windows{Warmup: 5 * sim.Millisecond, Measure: 10 * sim.Millisecond}
		}
		return experiments.Windows{Warmup: 20 * sim.Millisecond, Measure: 60 * sim.Millisecond}
	}
	w.clone = func(seed int64, sz size, sp *spans) artifact {
		var c *experiments.SNClone
		sp.do("experiments.CloneFS", func() {
			c = experiments.CloneFS(backend, fsSpec(), w.profileLoad(seed), w.profileWindows(sz), seed+17)
		})
		return artifact{profiles: c.Profiles, specs: c.Specs, sn: c}
	}
	w.deploy = func(a artifact, variant string, seed int64, sp *spans) *deployment {
		var d *experiments.FSEnv
		if variant == actual {
			sp.do("experiments.NewOriginalFS", func() {
				d = experiments.NewOriginalFS(backend, fsSpec(), seed+17, shardWidth)
			})
		} else {
			sp.do("experiments.NewSynthFS", func() {
				d = experiments.NewSynthFS(a.sn, fsSpec(), seed+18, shardWidth)
			})
		}
		return tiered(d.Env, d.Frontend, d.Port, d.Machines, d.Order, d.TierProc, d.Collector)
	}
	return w
}

// fsSpec is the storage figure's server platform: Platform A with a page
// cache far below the dataset.
func fsSpec() platform.Spec {
	spec := platform.A()
	spec.PageCacheMB = 64
	return spec
}

func tiered(env *experiments.Env, fe *platform.Machine, port int, machines []*platform.Machine,
	order []string, proc func(string) *kernel.Proc, col *dtrace.Collector) *deployment {
	d := &deployment{env: env, target: fe.Kernel, port: port, machines: machines, collector: col}
	for _, name := range order {
		if p := proc(name); p != nil {
			d.procs = append(d.procs, p)
		}
	}
	return d
}

// elapsed runs f and returns its host duration in seconds.
func elapsed(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}
