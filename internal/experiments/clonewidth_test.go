package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"runtime"
	"testing"

	"ditto/internal/app"
	"ditto/internal/core"
	"ditto/internal/loadgen"
	"ditto/internal/platform"
	"ditto/internal/sim"
)

// cloneArtifacts runs the cloning phase of the three perfbench workloads at
// small windows: a redis profile plus two fine-tuning measurements, a
// Social Network clone and a DittoFS clone. It returns the SHA-256 of each
// artifact's JSON (profiles, specs, plans, tuning steps), by name; the
// Social Network specs alone run to about 200 MB of JSON.
func cloneArtifacts(t *testing.T, seed int64) map[string][sha256.Size]byte {
	t.Helper()
	out := map[string][sha256.Size]byte{}
	put := func(name string, v any) {
		h := sha256.New()
		if err := json.NewEncoder(h).Encode(v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sum [sha256.Size]byte
		copy(sum[:], h.Sum(nil))
		out[name] = sum
	}

	redis := func(m *platform.Machine) app.App { return app.NewRedis(m, 6379, seed+4) }
	load := Load{Conns: 8, Seed: seed}
	win := Windows{Warmup: 4 * sim.Millisecond, Measure: 8 * sim.Millisecond}
	prof := ProfileRun(redis, load, win, 16<<20)
	spec, steps := core.FineTune(prof, seed+17, SynthRunner(load, win), 2, 1e-9)
	put("redis profile", prof)
	put("redis spec", spec)
	put("redis tuning steps", steps)

	sn := CloneSN(platform.A(), 4, 8, Load{QPS: 1000, Conns: 16, Mix: SNMix(), Seed: seed},
		Windows{Warmup: 10 * sim.Millisecond, Measure: 20 * sim.Millisecond}, seed+11)
	fsSpec := platform.A()
	fsSpec.PageCacheMB = 64
	fs := CloneFS("lsm", fsSpec, Load{Conns: 12, Mix: loadgen.FSMix(), Seed: seed},
		Windows{Warmup: 5 * sim.Millisecond, Measure: 10 * sim.Millisecond}, seed+17)
	for name, c := range map[string]*SNClone{"socialnet": sn, "dittofs": fs} {
		put(name+" profiles", c.Profiles)
		put(name+" specs", c.Specs)
		put(name+" plans", c.Plans)
	}
	return out
}

// TestCloneWidthInvariant pins the cloning phase's artifacts across host
// widths: its environments and per-tier reductions run on GOMAXPROCS
// workers, and one worker and two must produce the same bytes.
func TestCloneWidthInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three cloning phases twice")
	}
	at := func(procs int) map[string][sha256.Size]byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return cloneArtifacts(t, 1)
	}
	one, two := at(1), at(2)
	for name, sum := range one {
		if sum != two[name] {
			t.Errorf("%s differs between GOMAXPROCS 1 and 2", name)
		}
	}
}
