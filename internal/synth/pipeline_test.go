package synth_test

import (
	"math"
	"testing"

	"ditto/internal/app"
	"ditto/internal/core"
	"ditto/internal/experiments"
	"ditto/internal/platform"
	"ditto/internal/sim"
	"ditto/internal/synth"
)

var cloneLoad = experiments.Load{Conns: 4, Seed: 21}

func cloneWindows() experiments.Windows {
	return experiments.Windows{Warmup: 20 * sim.Millisecond, Measure: 120 * sim.Millisecond}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return math.Abs(a-b) / b
}

func TestPipelineClonesRedis(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	build := func(m *platform.Machine) app.App { return app.NewRedis(m, 6379, 31) }
	win := cloneWindows()
	prof, spec := experiments.Clone(build, cloneLoad, win, 64<<20, 0, 77)

	// Skeleton transferred.
	if spec.Skeleton.NetworkModel != "iomux" || spec.Skeleton.PerConn {
		t.Fatalf("skeleton = %+v", spec.Skeleton)
	}

	// Measure original and synthetic under identical load on Platform A.
	envO := experiments.NewEnvW(1, platform.A(), platform.WithCoreCount(8))
	orig := build(envO.Server)
	orig.Start()
	resO := experiments.Measure(envO, orig, cloneLoad, win)
	envO.Shutdown()

	envS := experiments.NewEnvW(1, platform.A(), platform.WithCoreCount(8))
	s := synth.NewServer(envS.Server, 9100, spec, 123)
	s.Start()
	resS := experiments.Measure(envS, s, cloneLoad, win)
	envS.Shutdown()

	if resO.Throughput == 0 || resS.Throughput == 0 {
		t.Fatalf("no traffic: orig=%v synth=%v", resO.Throughput, resS.Throughput)
	}
	// Untuned generation: coarse agreement expected (fine tuning tightens).
	if d := relDiff(resS.Metrics.IPC, resO.Metrics.IPC); d > 0.5 {
		t.Errorf("IPC: synth=%v orig=%v (Δ %.0f%%)", resS.Metrics.IPC, resO.Metrics.IPC, d*100)
	}
	if d := relDiff(resS.Metrics.KernelShare, resO.Metrics.KernelShare); d > 0.4 {
		t.Errorf("kernel share: synth=%v orig=%v", resS.Metrics.KernelShare, resO.Metrics.KernelShare)
	}
	// Network bandwidth should clone closely (same syscalls, same sizes).
	if d := relDiff(resS.NetBW/resS.Throughput, resO.NetBW/resO.Throughput); d > 0.2 {
		t.Errorf("per-request net bytes: synth=%v orig=%v",
			resS.NetBW/resS.Throughput, resO.NetBW/resO.Throughput)
	}
	// Latency in the same regime.
	if resS.AvgMs <= 0 || resS.AvgMs > 5*resO.AvgMs {
		t.Errorf("latency: synth=%vms orig=%vms", resS.AvgMs, resO.AvgMs)
	}
	_ = prof
	t.Logf("orig: %+v", resO.Metrics)
	t.Logf("synt: %+v", resS.Metrics)
}

func TestPipelineClonesMongoDBDiskBehaviour(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	build := func(m *platform.Machine) app.App { return app.NewMongoDB(m, 27017, 32) }
	win := cloneWindows()
	_, spec := experiments.Clone(build, cloneLoad, win, 64<<20, 0, 78)
	if !spec.Skeleton.PerConn {
		t.Fatalf("mongodb skeleton should be per-conn: %+v", spec.Skeleton)
	}

	envO := experiments.NewEnvW(1, platform.A(), platform.WithCoreCount(8))
	orig := build(envO.Server)
	orig.Start()
	resO := experiments.Measure(envO, orig, cloneLoad, win)
	envO.Shutdown()

	envS := experiments.NewEnvW(1, platform.A(), platform.WithCoreCount(8))
	s := synth.NewServer(envS.Server, 9100, spec, 124)
	s.Start()
	resS := experiments.Measure(envS, s, cloneLoad, win)
	envS.Shutdown()

	if resO.DiskBW == 0 || resS.DiskBW == 0 {
		t.Fatalf("disk bandwidth missing: orig=%v synth=%v", resO.DiskBW, resS.DiskBW)
	}
	// Disk BW per request should match tightly (paper reports 0.1% error;
	// allow simulator-scale slack).
	if d := relDiff(resS.DiskBW/resS.Throughput, resO.DiskBW/resO.Throughput); d > 0.25 {
		t.Errorf("per-request disk bytes: synth=%v orig=%v",
			resS.DiskBW/resS.Throughput, resO.DiskBW/resO.Throughput)
	}
	// Disk-bound latency regime preserved.
	if resS.AvgMs < resO.AvgMs/4 || resS.AvgMs > resO.AvgMs*4 {
		t.Errorf("latency regime: synth=%vms orig=%vms", resS.AvgMs, resO.AvgMs)
	}
}

func TestFineTuneImprovesRedisClone(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning loop is expensive")
	}
	build := func(m *platform.Machine) app.App { return app.NewRedis(m, 6379, 33) }
	win := cloneWindows()
	prof := experiments.ProfileRun(build, cloneLoad, win, 64<<20)
	runner := experiments.SynthRunner(cloneLoad, win)

	base := core.Generate(prof, 55)
	baseErr := core.MaxRelErr(runner(base), prof.Target)
	tuned, trace := core.FineTune(prof, 55, runner, 5, 0.05)
	finalErr := core.MaxRelErr(runner(tuned), prof.Target)
	t.Logf("base err=%.3f final err=%.3f steps=%d", baseErr, finalErr, len(trace))
	if finalErr > baseErr*1.15 && finalErr > 0.10 {
		t.Errorf("tuning regressed: base=%.3f final=%.3f", baseErr, finalErr)
	}
	if finalErr > 0.6 {
		t.Errorf("tuned clone still far off: %.3f", finalErr)
	}
}
