package experiments

import (
	"ditto/internal/app"
	"ditto/internal/dtrace"
	"ditto/internal/loadgen"
	"ditto/internal/platform"
	"ditto/internal/stats"
)

// SNMix is the paper-style request mix for the Social Network workload.
func SNMix() []loadgen.MixEntry {
	return []loadgen.MixEntry{
		{Kind: app.KindComposePost, Weight: 0.1, ReqBytes: 512},
		{Kind: app.KindReadHomeTimeline, Weight: 0.6, ReqBytes: 128},
		{Kind: app.KindReadUserTimeline, Weight: 0.3, ReqBytes: 128},
	}
}

// SNEnv is a deployed Social Network, original or synthetic. It is an
// alias of Deployment, kept because the benchmark under perfbench/ names it.
type SNEnv = Deployment

// snClient names the Social Network's load generator.
const snClient = "wrk2"

// snNodeNames names the machines after the first of an n-node deployment.
func snNodeNames(prefix string, nodes int) []string {
	var names []string
	for i := 1; i < nodes; i++ {
		names = append(names, prefix+string(rune('0'+i)))
	}
	return names
}

// NewOriginalSN deploys the original Social Network over nodes machines of
// the given spec (round-robin placement in tier order, one replica per
// tier), with the frontend on the first machine. intra sets
// the environment's intra-cell parallelism (see NewEnvW).
func NewOriginalSN(spec platform.Spec, nodes int, coresPer int, seed int64, intra int) *SNEnv {
	env, machines := newCluster(intra, spec, coresPer, snNodeNames("node", nodes)...)
	i := 0
	sn := app.NewSocialNetwork(func(string) *platform.Machine {
		m := machines[i%len(machines)]
		i++
		return m
	}, 9000, seed)
	sn.Start()
	return &SNEnv{Env: env, Machines: machines, Frontend: sn.Frontend.Machine(), Port: sn.Port(),
		Tiers: sn.Tiers, Order: append([]string(nil), sn.Order...), Collector: sn.Collector, client: snClient}
}

// MeasureSN drives the deployment and returns end-to-end results plus, for
// each named tier, its counter deltas and — when the deployment is traced —
// its latency and throughput over the window's spans.
func MeasureSN(d *SNEnv, load Load, win Windows, tiers []string) (Result, map[string]Result) {
	before := map[string]snapshot{}
	g, start, dur := d.measure(load, win, func() {
		for _, tn := range tiers {
			if p := d.TierProc(tn); p != nil {
				before[tn] = snap(p)
			}
		}
	})
	e2e := Result{Throughput: float64(g.Received()) / dur}
	setLatency(&e2e, g.Latency())
	perTier := map[string]Result{}
	var spans []dtrace.Span
	if d.Collector != nil {
		spans = d.Collector.Spans()
	}
	for _, tn := range tiers {
		p := d.TierProc(tn)
		if p == nil {
			continue
		}
		r := procResult(before[tn], snap(p), dur)
		// Per-tier service latency and throughput from the measurement
		// window's spans — the per-tier rows of Fig. 5 and Fig. 7.
		if d.Collector != nil {
			var lat stats.Recorder
			for _, sp := range spans {
				// Synthetic tiers record spans under "<service>-synth".
				if (sp.Service == tn || sp.Service == tn+"-synth") && sp.Start >= start {
					lat.Add(sp.Duration().Millis())
				}
			}
			setLatency(&r, &lat)
			r.Throughput = float64(lat.Count()) / dur
		}
		perTier[tn] = r
	}
	return e2e, perTier
}

// CloneSN profiles every tier of a running original Social Network under
// load and generates the synthetic specs (see clone). The profiling run
// uses the host's width (see cloneWidth).
func CloneSN(spec platform.Spec, nodes, coresPer int, load Load, win Windows, seed int64) *SNClone {
	return clone(NewOriginalSN(spec, nodes, coresPer, seed, cloneWidth()), app.FrontendName, load, win, seed)
}

// NewSynthSN deploys a fully synthetic Social Network from a clone: every
// tier replaced by its Ditto-generated counterpart (Fig. 6), placed
// round-robin over nodes machines like the original and keyed by the
// original tier names (see deploySynth). intra is the intra-cell
// parallelism, as in NewOriginalSN.
func NewSynthSN(clone *SNClone, spec platform.Spec, nodes, coresPer int, seed int64, intra int) *SNEnv {
	env, machines := newCluster(intra, spec, coresPer, snNodeNames("snode", nodes)...)
	return deploySynth(env, machines, clone, seed, snClient)
}

// deploySN deploys variant v of the Social Network: the original
// ("actual") at seed, or the clone's synthetic tiers at seed+1.
func deploySN(v string, clone *SNClone, spec platform.Spec, nodes, coresPer int, seed int64, intra int) *SNEnv {
	if v == "actual" {
		return NewOriginalSN(spec, nodes, coresPer, seed, intra)
	}
	return NewSynthSN(clone, spec, nodes, coresPer, seed+1, intra)
}
