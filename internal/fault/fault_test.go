package fault

import (
	"sync"
	"testing"

	"ditto/internal/app"
	"ditto/internal/dtrace"
	"ditto/internal/kernel"
	"ditto/internal/platform"
	"ditto/internal/sim"
)

// fixture is a two-machine parent→child deployment with a fault fabric.
type fixture struct {
	eng       *sim.Engine
	cl        *platform.Cluster
	m1, m2    *platform.Machine
	parent    *app.Tier
	child     *app.Tier
	fabric    *Fabric
	plane     *Plane
	collector *dtrace.Collector
}

type tierRegistry map[string]*app.Tier

func (r tierRegistry) Lookup(name string) (*kernel.Kernel, int) {
	t := r[name]
	return t.M.Kernel, t.Cfg.Port
}

func newFixture(seed int64) *fixture {
	eng := sim.NewEngine()
	cl := platform.NewCluster(100 * sim.Microsecond)
	m1 := platform.NewMachine(eng, "m1", platform.A(), platform.WithCoreCount(4))
	m2 := platform.NewMachine(eng, "m2", platform.A(), platform.WithCoreCount(4))
	cl.Add(m1)
	cl.Add(m2)
	collector := dtrace.NewCollector(1)
	reg := tierRegistry{}
	child := app.NewTier(m2, app.TierConfig{Name: "child", Port: 9001,
		RespBytes: 256, Seed: seed + 1}, nil)
	child.Registry = reg
	child.Collector = collector
	parent := app.NewTier(m1, app.TierConfig{Name: "parent", Port: 9000,
		RespBytes: 512, Seed: seed,
		Calls: map[int][]app.Call{0: {{Target: "child", Prob: 1, ReqBytes: 128, RespBytes: 256}}},
		Resilience: app.Resilience{
			Timeout: 2 * sim.Millisecond, Retries: 2, Backoff: 200 * sim.Microsecond,
			BreakerFails: 8, BreakerOpenFor: 10 * sim.Millisecond,
		},
	}, nil)
	parent.Registry = reg
	parent.Collector = collector
	reg["child"] = child
	reg["parent"] = parent
	child.Start()
	parent.Start()
	fabric := Interpose(cl, []*platform.Machine{m1, m2}, uint64(seed)|1)
	plane := NewPlane(fabric, map[string]*app.Tier{"parent": parent, "child": child})
	return &fixture{eng: eng, cl: cl, m1: m1, m2: m2, parent: parent,
		child: child, fabric: fabric, plane: plane, collector: collector}
}

// drive sends n paced requests through the parent and reports per-request
// failure flags in send order.
func (f *fixture) drive(n int, pace sim.Time) []bool {
	out := make([]bool, n)
	cp := f.m1.Kernel.NewProc("cli")
	cp.Spawn("cli", func(th *kernel.Thread) {
		conn := th.Connect(f.m1.Kernel, 9000)
		for i := 0; i < n; i++ {
			th.Sleep(pace)
			req := &app.Request{Kind: 0, SentAt: th.Now()}
			th.Send(conn, 64, req)
			th.Recv(conn)
			out[i] = req.Failed
		}
	})
	f.eng.RunUntil(30 * sim.Second)
	f.m1.Kernel.Stop()
	f.m2.Kernel.Stop()
	f.eng.Run()
	return out
}

func count(flags []bool, want bool) int {
	n := 0
	for _, v := range flags {
		if v == want {
			n++
		}
	}
	return n
}

func TestPartitionAndHeal(t *testing.T) {
	f := newFixture(7)
	f.plane.Schedule(Scenario{Name: "partition", Events: []Event{
		{At: 5 * sim.Millisecond, Op: OpPartition, Tiers: []string{"parent"}, TiersB: []string{"child"}},
		{At: 25 * sim.Millisecond, Op: OpHeal},
	}})
	flags := f.drive(40, sim.Millisecond)
	failed := count(flags, true)
	if failed == 0 {
		t.Fatal("partition produced no failed requests")
	}
	if count(flags, false) == 0 {
		t.Fatal("no request succeeded outside the partition window")
	}
	if flags[len(flags)-1] {
		t.Fatal("requests should succeed again after heal")
	}
	if f.fabric.Dropped() == 0 {
		t.Fatal("partitioned links dropped nothing")
	}
}

func TestCrashRestartScenario(t *testing.T) {
	f := newFixture(11)
	f.plane.Schedule(Scenario{Name: "crash", Events: []Event{
		{At: 5 * sim.Millisecond, Op: OpCrash, Tiers: []string{"child"}},
		{At: 20 * sim.Millisecond, Op: OpRestart, Tiers: []string{"child"}},
	}})
	flags := f.drive(40, sim.Millisecond)
	if count(flags, true) == 0 {
		t.Fatal("crash produced no failed requests")
	}
	if flags[len(flags)-1] {
		t.Fatal("requests should succeed after restart")
	}
	var retries int
	for _, s := range f.collector.Spans() {
		if s.Service == "parent" {
			retries += int(s.Retries)
		}
	}
	if retries == 0 {
		t.Fatal("outage should force parent retries")
	}
}

func TestSlowCPUThrottle(t *testing.T) {
	f := newFixture(13)
	base := f.m2.Cores[0].Time(1e6)
	f.plane.Schedule(Scenario{Name: "slow", Events: []Event{
		{At: 0, Op: OpSlowCPU, Tiers: []string{"child"}, Throttle: 0.5},
	}})
	f.eng.RunUntil(sim.Millisecond)
	slowed := f.m2.Cores[0].Time(1e6)
	if slowed != 2*base {
		t.Fatalf("0.5 throttle should double cycle time: base=%v slowed=%v", base, slowed)
	}
	f.plane.Schedule(Scenario{Name: "heal", Events: []Event{
		{At: f.eng.Now(), Op: OpHeal},
	}})
	f.eng.RunUntil(f.eng.Now() + sim.Microsecond)
	if f.m2.Cores[0].Time(1e6) != base {
		t.Fatal("heal should restore full clock")
	}
}

// signature captures everything observable about a run: per-request failure
// flags, per-link drop counts, and the full span stream.
func runScenario(seed int64) ([]bool, []uint64, []dtrace.Span, sim.Time) {
	f := newFixture(seed)
	f.plane.Schedule(Scenario{Name: "mixed", Events: []Event{
		{At: 3 * sim.Millisecond, Op: OpLoss, Loss: 0.2},
		{At: 8 * sim.Millisecond, Op: OpDelay, Delay: 500 * sim.Microsecond},
		{At: 12 * sim.Millisecond, Op: OpCrash, Tiers: []string{"child"}},
		{At: 20 * sim.Millisecond, Op: OpRestart, Tiers: []string{"child"}},
		{At: 26 * sim.Millisecond, Op: OpSlowCPU, Tiers: []string{"child"}, Throttle: 0.4},
		{At: 32 * sim.Millisecond, Op: OpHeal},
	}})
	flags := f.drive(50, sim.Millisecond)
	var drops []uint64
	for _, l := range f.fabric.Links() {
		drops = append(drops, l.Fault.Dropped)
	}
	return flags, drops, f.collector.Spans(), f.eng.Now()
}

// TestScenarioDeterminism replays a mixed scenario: same seed → identical
// failure pattern, drop counts, span stream, and final virtual time — even
// when the replays run concurrently in one OS process (cell isolation).
func TestScenarioDeterminism(t *testing.T) {
	type sig struct {
		flags []bool
		drops []uint64
		spans []dtrace.Span
		end   sim.Time
	}
	runs := make([]sig, 3)
	var wg sync.WaitGroup
	for i := range runs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			fl, dr, sp, end := runScenario(21)
			runs[i] = sig{fl, dr, sp, end}
		}()
	}
	wg.Wait()
	for i := 1; i < len(runs); i++ {
		if runs[i].end != runs[0].end {
			t.Fatalf("run %d final time %v != %v", i, runs[i].end, runs[0].end)
		}
		if len(runs[i].flags) != len(runs[0].flags) {
			t.Fatalf("run %d flag count differs", i)
		}
		for j := range runs[0].flags {
			if runs[i].flags[j] != runs[0].flags[j] {
				t.Fatalf("run %d request %d outcome differs", i, j)
			}
		}
		if len(runs[i].drops) != len(runs[0].drops) {
			t.Fatalf("run %d link count differs", i)
		}
		for j := range runs[0].drops {
			if runs[i].drops[j] != runs[0].drops[j] {
				t.Fatalf("run %d link %d drops %d != %d", i, j, runs[i].drops[j], runs[0].drops[j])
			}
		}
		if len(runs[i].spans) != len(runs[0].spans) {
			t.Fatalf("run %d span count %d != %d", i, len(runs[i].spans), len(runs[0].spans))
		}
		for j := range runs[0].spans {
			if runs[i].spans[j] != runs[0].spans[j] {
				t.Fatalf("run %d span %d differs: %+v vs %+v", i, j, runs[i].spans[j], runs[0].spans[j])
			}
		}
	}
	// A different seed must change the loss pattern's outcome somewhere.
	fl, _, _, _ := runScenario(22)
	same := len(fl) == len(runs[0].flags)
	if same {
		identical := true
		for j := range fl {
			if fl[j] != runs[0].flags[j] {
				identical = false
				break
			}
		}
		if identical {
			// Loss streams differ by seed, but both runs may still succeed
			// everywhere if retries absorb every drop; check drops differ.
			_, dr, _, _ := runScenario(22)
			diff := false
			for j := range dr {
				if dr[j] != runs[0].drops[j] {
					diff = true
					break
				}
			}
			if !diff {
				t.Fatal("different seeds produced identical drop patterns")
			}
		}
	}
}

func TestClientPathStaysFaultFree(t *testing.T) {
	eng := sim.NewEngine()
	cl := platform.NewCluster(100 * sim.Microsecond)
	a := platform.NewMachine(eng, "a", platform.A(), platform.WithCoreCount(2))
	b := platform.NewMachine(eng, "b", platform.A(), platform.WithCoreCount(2))
	c := platform.NewMachine(eng, "c", platform.A(), platform.WithCoreCount(2))
	cl.Add(a)
	cl.Add(b)
	cl.Add(c)
	fab := Interpose(cl, []*platform.Machine{a, b}, 5)
	if p := fab.Path(a.Kernel, b.Kernel); p.Fault == nil {
		t.Fatal("managed pair should carry a fault cell")
	}
	if p := fab.Path(a.Kernel, c.Kernel); p.Fault != nil {
		t.Fatal("path to unmanaged machine must stay fault-free")
	}
}
