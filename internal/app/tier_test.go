package app

import (
	"math"
	"testing"

	"ditto/internal/dtrace"
	"ditto/internal/kernel"
	"ditto/internal/platform"
	"ditto/internal/sim"
)

// twoTierFixture wires parent → child with a probabilistic edge.
type twoTierFixture struct {
	eng           *sim.Engine
	m             *platform.Machine
	parent, child *Tier
	collector     *dtrace.Collector
}

type mapRegistry map[string]*Tier

func (r mapRegistry) Lookup(name string) (*kernel.Kernel, int) {
	t := r[name]
	return t.M.Kernel, t.Cfg.Port
}

func newTwoTier(t *testing.T, prob float64) *twoTierFixture {
	t.Helper()
	eng := sim.NewEngine()
	cl := platform.NewCluster(100 * sim.Microsecond)
	m := platform.NewMachine(eng, "m", platform.A(), platform.WithCoreCount(8))
	cl.Add(m)
	collector := dtrace.NewCollector(1)
	reg := mapRegistry{}
	child := NewTier(m, TierConfig{Name: "child", Port: 9001, Model: "epoll",
		RespBytes: 256, Seed: 2}, nil)
	child.Registry = reg
	child.Collector = collector
	parent := NewTier(m, TierConfig{Name: "parent", Port: 9000, Model: "pool",
		RespBytes: 512, Seed: 1,
		Calls: map[int][]Call{0: {{Target: "child", Prob: prob, ReqBytes: 128, RespBytes: 256}}},
	}, nil)
	parent.Registry = reg
	parent.Collector = collector
	reg["child"] = child
	reg["parent"] = parent
	child.Start()
	parent.Start()
	return &twoTierFixture{eng: eng, m: m, parent: parent, child: child, collector: collector}
}

func (f *twoTierFixture) drive(n int) {
	cp := f.m.Kernel.NewProc("cli")
	cp.Spawn("cli", func(th *kernel.Thread) {
		conn := th.Connect(f.m.Kernel, 9000)
		for i := 0; i < n; i++ {
			th.Send(conn, 64, &Request{Kind: 0, SentAt: th.Now()})
			th.Recv(conn)
		}
	})
	f.eng.RunUntil(30 * sim.Second)
}

func (f *twoTierFixture) shutdown() {
	f.m.Kernel.Stop()
	f.eng.Run()
}

func TestTierProbabilisticEdge(t *testing.T) {
	f := newTwoTier(t, 0.3)
	f.drive(300)
	defer f.shutdown()
	spans := f.collector.Spans()
	var parents, children int
	for _, s := range spans {
		switch s.Service {
		case "parent":
			parents++
		case "child":
			children++
		}
	}
	if parents != 300 {
		t.Fatalf("parent spans = %d", parents)
	}
	frac := float64(children) / float64(parents)
	if math.Abs(frac-0.3) > 0.07 {
		t.Fatalf("edge rate = %v, want ≈ 0.3", frac)
	}
}

func TestTierAlwaysEdgeAndSpanNesting(t *testing.T) {
	f := newTwoTier(t, 1.0)
	f.drive(50)
	defer f.shutdown()
	spans := f.collector.Spans()
	byID := map[dtrace.SpanID]dtrace.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	checked := 0
	for _, s := range spans {
		if s.Service != "child" {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Service != "parent" {
			t.Fatalf("child span without parent link: %+v", s)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("child span not nested: child=[%v,%v] parent=[%v,%v]",
				s.Start, s.End, p.Start, p.End)
		}
		checked++
	}
	if checked != 50 {
		t.Fatalf("child spans = %d", checked)
	}
	// Graph reconstruction sees the single edge with probability 1.
	g := dtrace.BuildGraph(spans)
	out := g.Out("parent")
	if len(out) != 1 || math.Abs(out[0].Prob-1) > 1e-9 {
		t.Fatalf("edges = %+v", out)
	}
	if !g.IsAcyclic() {
		t.Fatal("graph should be acyclic")
	}
}

func TestSocialNetworkTopologyIsDAG(t *testing.T) {
	eng := sim.NewEngine()
	cl := platform.NewCluster(100 * sim.Microsecond)
	m := platform.NewMachine(eng, "m", platform.A(), platform.WithCoreCount(16))
	cl.Add(m)
	sn := NewSocialNetwork(func(string) *platform.Machine { return m }, 9000, 3)
	sn.Start()
	cp := m.Kernel.NewProc("cli")
	kinds := []int{KindComposePost, KindReadHomeTimeline, KindReadUserTimeline}
	cp.Spawn("cli", func(th *kernel.Thread) {
		conn := th.Connect(m.Kernel, sn.Port())
		for i := 0; i < 30; i++ {
			th.Send(conn, 128, &Request{Kind: kinds[i%3], SentAt: th.Now()})
			th.Recv(conn)
		}
	})
	eng.RunUntil(60 * sim.Second)
	g := dtrace.BuildGraph(sn.Collector.Spans())
	if !g.IsAcyclic() {
		t.Fatal("social network must be a DAG (§4.2)")
	}
	if len(g.Services) < 10 {
		t.Fatalf("services observed = %d", len(g.Services))
	}
	if len(g.Roots) != 1 || g.Roots[0] != FrontendName {
		t.Fatalf("roots = %v", g.Roots)
	}
	m.Kernel.Stop()
	eng.Run()
}

func TestKindNames(t *testing.T) {
	if kindName(KindComposePost) != "compose-post" || kindName(99) != "op" {
		t.Fatal("kind names wrong")
	}
}
