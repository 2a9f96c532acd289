package main

import (
	"math"
	"testing"

	"ditto/internal/app"
	"ditto/internal/cpu"
	"ditto/internal/experiments"
	"ditto/internal/platform"
	"ditto/internal/synth"
)

const testSeed = 7

// sameCounters compares counter sets. The driver sums processes before
// taking the window delta where experiments takes per-process deltas, so
// the float cycle accounts may differ in the last bits.
func sameCounters(t *testing.T, what string, got, want cpu.Counters) {
	t.Helper()
	if got.Instrs != want.Instrs || got.Branches != want.Branches || got.Mispred != want.Mispred ||
		got.L1iMiss != want.L1iMiss || got.L1dMiss != want.L1dMiss || got.L2Miss != want.L2Miss ||
		got.L3Miss != want.L3Miss || got.KernelInstrs != want.KernelInstrs {
		t.Errorf("%s: counters differ:\n driver %+v\n want   %+v", what, got, want)
	}
	if math.Abs(got.Cycles-want.Cycles) > 1e-9*want.Cycles {
		t.Errorf("%s: cycles %v, want %v", what, got.Cycles, want.Cycles)
	}
}

func sameFloat(t *testing.T, what string, got, want float64) {
	t.Helper()
	if got != want {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

func replayerFor(w *workload) replayer {
	return replayer{load: w.replayLoad(testSeed), win: w.replayWindows(small),
		clientName: w.clientName, sampled: w.sampled}
}

// TestDriverMatchesMeasure pins the benchmark's replay driver to
// experiments.Measure for both single-tier variants.
func TestDriverMatchesMeasure(t *testing.T) {
	w := redisWorkload()
	art := w.clone(testSeed, small, nil)
	builds := map[string]experiments.AppBuilder{
		actual: func(m *platform.Machine) app.App { return app.NewRedis(m, 6379, testSeed+4) },
		synthetic: func(m *platform.Machine) app.App {
			return synth.NewServer(m, 9100, art.specs["redis"], testSeed+31)
		},
	}
	rp := replayerFor(w)
	for _, v := range variants {
		env := experiments.NewEnvW(shardWidth, platform.A(), platform.WithCoreCount(8))
		a := builds[v](env.Server)
		a.Start()
		want := experiments.Measure(env, a, rp.load, rp.win)
		env.Shutdown()

		got, _ := rp.run(func() *deployment { return w.deploy(art, v, testSeed, nil) })
		sameCounters(t, v, got.Ctr, want.Counters)
		sameFloat(t, v+" p50", got.P50Ms, want.P50Ms)
		sameFloat(t, v+" p99", got.P99Ms, want.P99Ms)
		sameFloat(t, v+" throughput", got.throughput(), want.Throughput)
	}
}

// TestDriverMatchesMeasureSN pins the driver to experiments.MeasureSN under
// sampled execution, for both Social Network variants.
func TestDriverMatchesMeasureSN(t *testing.T) {
	w := socialnetWorkload()
	art := w.clone(testSeed, small, nil)
	rp := replayerFor(w)
	for _, v := range variants {
		d := snEnvOf(art, v)
		e2e, per := experiments.MeasureSN(d, rp.load, rp.win, art.sn.Order)
		d.Env.Shutdown()
		var want cpu.Counters
		for _, name := range art.sn.Order {
			want.Add(per[name].Counters)
		}

		got, _ := rp.run(func() *deployment { return w.deploy(art, v, testSeed, nil) })
		sameCounters(t, v, got.Ctr, want)
		sameFloat(t, v+" p50", got.P50Ms, e2e.P50Ms)
		sameFloat(t, v+" p99", got.P99Ms, e2e.P99Ms)
		sameFloat(t, v+" throughput", got.throughput(), e2e.Throughput)
	}
}

// snEnvOf deploys a Social Network variant exactly as socialnetWorkload
// does, returning the experiments handle MeasureSN takes.
func snEnvOf(art artifact, v string) *experiments.SNEnv {
	var d *experiments.SNEnv
	if v == actual {
		d = experiments.NewOriginalSN(platform.A(), 4, 8, testSeed+11, shardWidth)
	} else {
		d = experiments.NewSynthSN(art.sn, platform.A(), 4, 8, testSeed+12, shardWidth)
	}
	d.Env.EnableSampling(socialnetWorkload().replayLoad(testSeed).Seed)
	return d
}

// TestDriverMatchesMeasureFS pins the driver to experiments.MeasureFS,
// storage counters included, for both DittoFS variants.
func TestDriverMatchesMeasureFS(t *testing.T) {
	w := dittofsWorkload()
	art := w.clone(testSeed, small, nil)
	rp := replayerFor(w)
	for _, v := range variants {
		var d *experiments.FSEnv
		if v == actual {
			d = experiments.NewOriginalFS("lsm", fsSpec(), testSeed+17, shardWidth)
		} else {
			d = experiments.NewSynthFS(art.sn, fsSpec(), testSeed+18, shardWidth)
		}
		want := experiments.MeasureFS(d, rp.load, rp.win)
		d.Env.Shutdown()

		got, _ := rp.run(func() *deployment { return w.deploy(art, v, testSeed, nil) })
		sameFloat(t, v+" p50", got.P50Ms, want.P50Ms)
		sameFloat(t, v+" p99", got.P99Ms, want.P99Ms)
		sameFloat(t, v+" throughput", got.throughput(), want.Throughput)
		sameFloat(t, v+" disk read B/s", float64(got.DiskRead)/got.SimSeconds, want.DiskReadBW)
		sameFloat(t, v+" disk write B/s", float64(got.DiskWrite)/got.SimSeconds, want.DiskWriteBW)
		sameFloat(t, v+" fsync/s", float64(got.Fsyncs)/got.SimSeconds, want.FsyncRate)
		sameFloat(t, v+" fsync p99", got.FsyncP99Ms, want.FsyncP99Ms)
		if hit := float64(got.PCHits) / float64(got.PCHits+got.PCMiss); hit != want.PCHitRate {
			t.Errorf("%s page-cache hit rate = %v, want %v", v, hit, want.PCHitRate)
		}
	}
}

// TestSmoke runs every workload end to end at small size, untraced and
// traced, and requires the correctness check to pass and the traced pass
// to simulate exactly what the untraced pass did.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			ref, err := runPipeline(w, &options{seed: testSeed, size: small, passes: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range check(w, ref) {
				t.Error(p)
			}
			o := &options{seed: testSeed, size: small, passes: 1, sp: newSpans(w.name), prof: &profiler{}}
			tr, err := runPipeline(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSimulation(ref, tr); err != nil {
				t.Error(err)
			}
			for _, phase := range []string{"clone", "replay"} {
				sh := o.prof.shares(phase)
				var sum float64
				for _, p := range sh {
					sum += p
				}
				if math.Abs(sum-100) > 1e-6 {
					t.Errorf("%s shares sum to %v%%", phase, sum)
				}
			}
			if len(o.sp.list) == 0 || o.sp.list[0].Name != "phase.clone" {
				t.Errorf("spans start with %+v, want phase.clone", o.sp.list)
			}
		})
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ditto/internal/cache.(*Cache).touch":               "cache",
		"ditto/internal/app/dittofs.(*Service).Start.func1": "dittofs",
		"ditto/internal/app.(*Tier).handle":                 "app",
		"ditto/internal/sim.(*Engine).Step":                 "sim",
		"runtime.mallocgc":                                  "",
		"main.run":                                          "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
