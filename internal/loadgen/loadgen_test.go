package loadgen

import (
	"math"
	"testing"

	"ditto/internal/app"
	"ditto/internal/platform"
	"ditto/internal/sim"
)

func setup(t *testing.T) (*sim.Engine, *platform.Machine, *platform.Machine, app.App) {
	t.Helper()
	eng := sim.NewEngine()
	cl := platform.NewCluster(100 * sim.Microsecond)
	srv := platform.NewMachine(eng, "srv", platform.A(), platform.WithCoreCount(8))
	cli := platform.NewMachine(eng, "cli", platform.A(), platform.WithCoreCount(8))
	cl.Add(srv)
	cl.Add(cli)
	a := app.NewRedis(srv, 6379, 7)
	a.Start()
	return eng, srv, cli, a
}

func TestOpenLoopRate(t *testing.T) {
	eng, srv, cli, a := setup(t)
	g := New(Config{Name: "open", Machine: cli, Target: srv.Kernel, Port: a.Port(),
		Conns: 8, QPS: 2000, Seed: 1})
	g.Start()
	eng.RunUntil(sim.Second)
	rate := float64(g.Sent())
	if math.Abs(rate-2000) > 300 {
		t.Fatalf("open-loop sent %v in 1s, want ≈ 2000", rate)
	}
	if g.Received() < g.Sent()*9/10 {
		t.Fatalf("received %d of %d", g.Received(), g.Sent())
	}
	if g.Latency().Count() == 0 || g.Latency().Percentile(99) <= 0 {
		t.Fatal("no latency recorded")
	}
	srv.Kernel.Stop()
	cli.Kernel.Stop()
	eng.Run()
}

func TestClosedLoopKeepsOneOutstanding(t *testing.T) {
	eng, srv, cli, a := setup(t)
	g := New(Config{Name: "closed", Machine: cli, Target: srv.Kernel, Port: a.Port(),
		Conns: 4, Seed: 2})
	g.Start()
	eng.RunUntil(200 * sim.Millisecond)
	if g.Sent() == 0 {
		t.Fatal("closed loop sent nothing")
	}
	outstanding := g.Sent() - g.Received()
	if outstanding < 0 || outstanding > 4 {
		t.Fatalf("outstanding = %d, want ≤ conns", outstanding)
	}
	srv.Kernel.Stop()
	cli.Kernel.Stop()
	eng.Run()
}

func TestResetClearsStats(t *testing.T) {
	eng, srv, cli, a := setup(t)
	g := New(Config{Name: "g", Machine: cli, Target: srv.Kernel, Port: a.Port(),
		Conns: 2, QPS: 500, Seed: 3})
	g.Start()
	eng.RunUntil(300 * sim.Millisecond)
	if g.Sent() == 0 {
		t.Fatal("warmup sent nothing")
	}
	g.Reset()
	if g.Sent() != 0 || g.Received() != 0 || g.Latency().Count() != 0 {
		t.Fatal("reset did not clear stats")
	}
	eng.RunUntil(600 * sim.Millisecond)
	if g.Received() == 0 {
		t.Fatal("no post-reset traffic")
	}
	srv.Kernel.Stop()
	cli.Kernel.Stop()
	eng.Run()
}

// Satellite regression: open-loop accounting across the warmup Reset. Sent
// must track the offered rate over the post-reset window only; responses to
// requests in flight at the Reset may still arrive, so Received may exceed
// Sent by at most the connection count but no more.
func TestOpenLoopAccountingAfterReset(t *testing.T) {
	eng, srv, cli, a := setup(t)
	g := New(Config{Name: "open", Machine: cli, Target: srv.Kernel, Port: a.Port(),
		Conns: 8, QPS: 2000, Seed: 5})
	g.Start()
	eng.RunUntil(250 * sim.Millisecond)
	if g.Sent() == 0 {
		t.Fatal("no warmup traffic")
	}
	g.Reset()
	if g.Sent() != 0 || g.Received() != 0 || g.Latency().Count() != 0 {
		t.Fatal("Reset did not clear counters")
	}
	eng.RunUntil(1250 * sim.Millisecond) // exactly 1s of measurement
	rate := float64(g.Sent())
	if math.Abs(rate-2000) > 300 {
		t.Fatalf("post-reset open loop sent %v in 1s, want ≈ 2000", rate)
	}
	if g.Received() > g.Sent()+8 {
		t.Fatalf("received %d > sent %d + conns 8: counting pre-reset traffic",
			g.Received(), g.Sent())
	}
	if g.Received() < g.Sent()*9/10 {
		t.Fatalf("received %d of %d", g.Received(), g.Sent())
	}
	srv.Kernel.Stop()
	cli.Kernel.Stop()
	eng.Run()
}

// Satellite regression: closed-loop accounting across the warmup Reset. With
// one outstanding request per connection, |Sent - Received| never exceeds
// the connection count in either direction (responses to pre-reset sends
// arrive without a matching post-reset Sent).
func TestClosedLoopAccountingAfterReset(t *testing.T) {
	eng, srv, cli, a := setup(t)
	g := New(Config{Name: "closed", Machine: cli, Target: srv.Kernel, Port: a.Port(),
		Conns: 4, Seed: 6})
	g.Start()
	eng.RunUntil(100 * sim.Millisecond)
	if g.Sent() == 0 {
		t.Fatal("no warmup traffic")
	}
	g.Reset()
	eng.RunUntil(300 * sim.Millisecond)
	if g.Sent() == 0 {
		t.Fatal("closed loop sent nothing after reset")
	}
	diff := g.Sent() - g.Received()
	if diff > 4 || diff < -4 {
		t.Fatalf("sent-received = %d, want within ±conns (4)", diff)
	}
	if g.Latency().Count() == 0 {
		t.Fatal("no post-reset latency samples")
	}
	srv.Kernel.Stop()
	cli.Kernel.Stop()
	eng.Run()
}

func TestMixSampling(t *testing.T) {
	eng, srv, cli, a := setup(t)
	g := New(Config{Name: "mix", Machine: cli, Target: srv.Kernel, Port: a.Port(),
		Conns: 2, QPS: 1000, Seed: 4,
		Mix: []MixEntry{
			{Kind: 0, Weight: 0.1, ReqBytes: 64},
			{Kind: 1, Weight: 0.9, ReqBytes: 128},
		}})
	g.Start()
	eng.RunUntil(500 * sim.Millisecond)
	if g.Received() == 0 {
		t.Fatal("no traffic")
	}
	srv.Kernel.Stop()
	cli.Kernel.Stop()
	eng.Run()
}

func TestDefaults(t *testing.T) {
	eng, srv, cli, a := setup(t)
	g := New(Config{Machine: cli, Target: srv.Kernel, Port: a.Port()})
	if g.cfg.Conns != 8 || len(g.cfg.Mix) != 1 {
		t.Fatal("defaults not applied")
	}
	_ = eng
	srv.Kernel.Stop()
	cli.Kernel.Stop()
	eng.Run()
}
