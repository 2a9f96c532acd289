// Quickstart: the smallest end-to-end Ditto run. We bring up the original
// Redis model on a simulated Platform A server, profile it under a YCSB-ish
// closed loop, generate a synthetic clone, statically verify the clone
// against the profile, and run original and clone side by side, printing
// the counter comparison — the whole pipeline of the paper in one file.
package main

import (
	"fmt"
	"os"

	"ditto/internal/app"
	"ditto/internal/core"
	"ditto/internal/experiments"
	"ditto/internal/platform"
	"ditto/internal/sim"
	"ditto/internal/synth"
	"ditto/internal/verify"
)

func main() {
	build := func(m *platform.Machine) app.App { return app.NewRedis(m, 6379, 42) }
	load := experiments.Load{Conns: 8, Seed: 42}
	win := experiments.Windows{Warmup: 20 * sim.Millisecond, Measure: 150 * sim.Millisecond}

	fmt.Println("== profiling original redis (SDE + Valgrind + SystemTap analogs) ==")
	prof := experiments.ProfileRun(build, load, win, 128<<20)
	fmt.Printf("profiled %d requests: %.0f instrs/req, %d mix clusters, %d static branches\n",
		prof.Requests, prof.Body.InstrsPerRequest, len(prof.Body.Mix), prof.Body.StaticBranches)
	fmt.Printf("detected skeleton: %s, %d worker(s), perConn=%v\n",
		prof.Skeleton.NetworkModel, prof.Skeleton.Workers, prof.Skeleton.PerConn)

	fmt.Println("== generating + fine-tuning the clone ==")
	spec, trace := core.FineTune(prof, 7, experiments.SynthRunner(load, win), 4, 0.05)
	for _, st := range trace {
		fmt.Printf("  tune iter %d: max metric error %.1f%%\n", st.Iter, st.MaxErr*100)
	}
	fmt.Printf("generated %d instruction blocks over %d data regions\n",
		len(spec.Body.Blocks), len(spec.Body.Regions))

	fmt.Println("== verifying the clone against its profile ==")
	rep := verify.Spec(spec, prof, verify.DefaultTolerances())
	fmt.Print(rep.String())
	if !rep.OK() {
		fmt.Println("clone failed verification; not worth simulating")
		os.Exit(1)
	}

	fmt.Println("== measuring original vs synthetic under identical load ==")
	envO := experiments.NewEnvW(1, platform.A(), platform.WithCoreCount(8))
	orig := build(envO.Server)
	orig.Start()
	ro := experiments.Measure(envO, orig, load, win)
	envO.Shutdown()

	envS := experiments.NewEnvW(1, platform.A(), platform.WithCoreCount(8))
	clone := synth.NewServer(envS.Server, 6379, spec, 43)
	clone.Start()
	rs := experiments.Measure(envS, clone, load, win)
	envS.Shutdown()

	fmt.Printf("%-12s %12s %12s\n", "metric", "actual", "synthetic")
	fmt.Printf("%-12s %12.3f %12.3f\n", "IPC", ro.Metrics.IPC, rs.Metrics.IPC)
	fmt.Printf("%-12s %12.4f %12.4f\n", "branch miss", ro.Metrics.BranchMiss, rs.Metrics.BranchMiss)
	fmt.Printf("%-12s %12.4f %12.4f\n", "L1i miss", ro.Metrics.L1iMiss, rs.Metrics.L1iMiss)
	fmt.Printf("%-12s %12.4f %12.4f\n", "L1d miss", ro.Metrics.L1dMiss, rs.Metrics.L1dMiss)
	fmt.Printf("%-12s %12.4f %12.4f\n", "LLC miss", ro.Metrics.L3Miss, rs.Metrics.L3Miss)
	fmt.Printf("%-12s %12.3f %12.3f\n", "avg ms", ro.AvgMs, rs.AvgMs)
	fmt.Printf("%-12s %12.3f %12.3f\n", "p99 ms", ro.P99Ms, rs.P99Ms)
	fmt.Printf("%-12s %12.0f %12.0f\n", "req/s", ro.Throughput, rs.Throughput)
}
