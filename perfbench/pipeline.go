package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"ditto/internal/core"
	"ditto/internal/verify"
)

// round is one replay of both variants on freshly built deployments.
type round struct {
	samples [2]sample // actual, synthetic
	host    [2]hostTimes
}

func (r round) setup() float64 { return r.host[0].setup + r.host[1].setup }

func (r round) measure() float64 { return r.host[0].measure + r.host[1].measure }

func (r round) total() float64 {
	var t float64
	for _, h := range r.host {
		t += h.setup + h.measure + h.teardown
	}
	return t
}

// pass is one clone of the workload, made from one sub-seed, and one replay
// of it.
type pass struct {
	seed      int64
	art       artifact
	cloneS    float64
	generateS float64 // core.Generate over every cloned profile, timed again apart
	round     round
}

// pipelineRun is a benchmark run's passes. The first fidelity passes are
// the run's fixed share; the rest only fill its time budget.
type pipelineRun struct {
	passes    []pass
	fidelity  int
	verifyErr error
}

// options selects how a pipeline run executes.
type options struct {
	seed   int64
	size   size
	passes int           // passes the run always makes; 0 means the workload's own count
	budget time.Duration // further passes are made until this much host time is spent
	sp     *spans        // nil for untraced runs
	prof   *profiler     // nil for untraced runs
}

// subSeed derives pass k's seed, so that passes of one run and runs of
// different seeds never share inputs.
func subSeed(seed int64, k int) int64 { return seed*16 + int64(k) }

// runPipeline makes passes over the workload. Each pass profiles the
// original, generates the clone, checks every generated spec with the clone
// verifier, and replays both variants on fresh deployments under held-out
// load. It makes a fixed number of passes, then more until the time budget
// is spent. Fidelity is taken from the fixed passes only, so it does not
// depend on host speed.
func runPipeline(w *workload, o *options) (*pipelineRun, error) {
	pr := &pipelineRun{fidelity: o.passes}
	if pr.fidelity == 0 {
		pr.fidelity = w.passes
	}
	t0 := time.Now()
	for k := 0; k < pr.fidelity || time.Since(t0) < o.budget; k++ {
		p := pass{seed: subSeed(o.seed, k)}
		err := o.phase("clone", func() {
			p.cloneS = elapsed(func() { p.art = w.clone(p.seed, o.size, o.sp) })
		})
		if err != nil {
			return nil, err
		}
		fmt.Printf("clone (seed %d): %.3f s\n", p.seed, p.cloneS)
		p.generateS = pr.verify(p.art, p.seed)
		if err := o.phase("replay", func() { p.round = replayRound(w, o, &p) }); err != nil {
			return nil, err
		}
		// Holding every clone would grow the heap, and with it the
		// collector's work, from pass to pass.
		p.art = artifact{tuneS: p.art.tuneS}
		pr.passes = append(pr.passes, p)
	}
	return pr, nil
}

// phase runs f as one segment of the named phase: inside a span, under the
// CPU profiler when the run is traced, after a collection so that garbage
// from the previous segment is not collected on its time.
func (o *options) phase(name string, f func()) error {
	runtime.GC()
	if o.prof == nil {
		o.sp.do("phase."+name, f)
		return nil
	}
	if err := o.prof.start(); err != nil {
		return err
	}
	o.sp.do("phase."+name, f)
	return o.prof.stop(name)
}

// verify runs the clone verifier on every generated spec and returns the
// host seconds core.Generate takes to regenerate the specs from their
// profiles.
func (pr *pipelineRun) verify(art artifact, seed int64) (generateS float64) {
	names := make([]string, 0, len(art.specs))
	for name := range art.specs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prof := art.profiles[name]
		generateS += elapsed(func() { core.Generate(prof, seed) })
		if r := verify.Spec(art.specs[name], prof, verify.DefaultTolerances()); !r.OK() && pr.verifyErr == nil {
			pr.verifyErr = fmt.Errorf("clone verifier rejects %s (seed %d):\n%s", name, seed, r)
		}
	}
	return generateS
}

// replayRound replays the original and pass p's clone once each.
func replayRound(w *workload, o *options, p *pass) round {
	rp := replayer{load: w.replayLoad(p.seed), win: w.replayWindows(o.size), clientName: w.clientName,
		sampled: w.sampled, observe: o.prof != nil, sp: o.sp}
	var r round
	o.sp.do("replay.round", func() {
		for i, v := range variants {
			r.samples[i], r.host[i] = rp.run(func() *deployment { return w.deploy(p.art, v, p.seed, o.sp) })
		}
	})
	fmt.Printf("round (seed %d): setup %.3f+%.3f s, measure %.3f+%.3f s, %.1f req/s, %.2f MIPS\n", p.seed,
		r.host[0].setup, r.host[1].setup, r.host[0].measure, r.host[1].measure,
		float64(r.samples[0].WinReceived+r.samples[1].WinReceived)/r.measure(),
		float64(r.samples[0].Ctr.Instrs+r.samples[1].Ctr.Instrs)/r.measure()/1e6)
	return r
}
