// Power-management example (the Fig. 11 case study): can a cloud provider
// use the synthetic Memcached instead of the real one to decide how far
// cores and frequency can be scaled down before the 1ms p99 QoS breaks?
package main

import (
	"fmt"

	"ditto/internal/app"
	"ditto/internal/experiments"
	"ditto/internal/platform"
	"ditto/internal/sim"
	"ditto/internal/synth"
)

func main() {
	build := func(m *platform.Machine) app.App { return app.NewMemcachedN(m, 11211, 16, 3) }
	win := experiments.Windows{Warmup: 15 * sim.Millisecond, Measure: 100 * sim.Millisecond}

	// Find capacity at the full configuration, then offer 45% of it.
	envP := experiments.NewEnvW(1, platform.A(), platform.WithCoreCount(16), platform.WithFreqGHz(2.1))
	a := build(envP.Server)
	a.Start()
	capRes := experiments.Measure(envP, a, experiments.Load{Conns: 32, Seed: 3}, win)
	envP.Shutdown()
	load := experiments.Load{QPS: capRes.Throughput * 0.45, Conns: 16, Seed: 3}
	fmt.Printf("offered load: %.0f QPS (45%% of %0.f)\n", load.QPS, capRes.Throughput)

	_, spec := experiments.Clone(build, load, win, 128<<20, 2, 3)

	const qos = 1.0 // ms
	fmt.Printf("%6s %6s | %22s | %22s\n", "cores", "GHz", "actual p99 (QoS?)", "synthetic p99 (QoS?)")
	for _, cores := range []int{4, 8, 16} {
		for _, f := range []float64{1.1, 1.7, 2.1} {
			var p99 [2]float64
			for i, variant := range []string{"actual", "synthetic"} {
				env := experiments.NewEnvW(1, platform.A(),
					platform.WithCoreCount(cores), platform.WithFreqGHz(f))
				var srv app.App
				if variant == "actual" {
					srv = build(env.Server)
				} else {
					srv = synth.NewServer(env.Server, 11211, spec, 4)
				}
				srv.Start()
				r := experiments.Measure(env, srv, load, win)
				env.Shutdown()
				p99[i] = r.P99Ms
			}
			mark := func(v float64) string {
				if v > 0 && v <= qos {
					return "meets"
				}
				return "VIOLATES"
			}
			fmt.Printf("%6d %6.1f | %12.3f %-9s | %12.3f %-9s\n",
				cores, f, p99[0], mark(p99[0]), p99[1], mark(p99[1]))
		}
	}
}
