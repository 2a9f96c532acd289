// Interference example: show that a Ditto clone inherits the original's
// sensitivity to resource contention without ever being profiled under it
// (the §6.5 case study). NGINX and its clone run alone, against an
// iBench-style LLC hammer, and against an iperf3-style network hog.
package main

import (
	"fmt"

	"ditto/internal/app"
	"ditto/internal/experiments"
	"ditto/internal/interfere"
	"ditto/internal/platform"
	"ditto/internal/sim"
	"ditto/internal/synth"
)

func main() {
	build := func(m *platform.Machine) app.App { return app.NewNginx(m, 80, 5) }
	win := experiments.Windows{Warmup: 15 * sim.Millisecond, Measure: 100 * sim.Millisecond}
	load := experiments.Load{QPS: 3000, Conns: 16, Seed: 5}

	fmt.Println("== cloning nginx from an interference-free profile ==")
	_, spec := experiments.Clone(build, load, win, 32<<20, 2, 5)

	type scenario struct {
		name string
		llc  bool
		net  bool
	}
	scenarios := []scenario{{name: "alone"}, {name: "LLC hammer", llc: true}, {name: "net hog", net: true}}

	fmt.Printf("%-12s %-10s %8s %8s %8s\n", "scenario", "variant", "IPC", "LLCmiss", "p99 ms")
	for _, sc := range scenarios {
		for _, variant := range []string{"actual", "synthetic"} {
			env := experiments.NewEnvW(1, platform.A(), platform.WithCoreCount(6))
			var srv app.App
			if variant == "actual" {
				srv = build(env.Server)
			} else {
				srv = synth.NewServer(env.Server, 80, spec, 6)
			}
			srv.Start()
			if sc.llc {
				interfere.StartLLCStressor(env.Server, 4, platform.A().LLCKB<<10)
			}
			if sc.net {
				interfere.StartNetStressor(env.Server, env.Client, 5201, 1<<20)
			}
			r := experiments.Measure(env, srv, load, win)
			env.Shutdown()
			fmt.Printf("%-12s %-10s %8.3f %8.4f %8.3f\n",
				sc.name, variant, r.Metrics.IPC, r.Metrics.L3Miss, r.P99Ms)
		}
	}
}
