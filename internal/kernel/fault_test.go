package kernel

import (
	"testing"

	"ditto/internal/sim"
)

// TestKillProcUnbindsListener checks that a crashed process's listener is
// removed, so a resilient client's ConnectTimeout observes the crash rather
// than handshaking with a ghost.
func TestKillProcUnbindsListener(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 2)
	srv := k.NewProc("server")
	srv.Spawn("s", func(th *Thread) {
		l := th.Listen(90)
		conn := th.Accept(l)
		for {
			th.Recv(conn)
		}
	})

	cli := k.NewProc("client")
	var first, second *Endpoint
	cli.Spawn("c", func(th *Thread) {
		th.Sleep(sim.Millisecond)
		first = th.Connect(k, 90)
		th.Sleep(5 * sim.Millisecond) // crash happens at 3ms
		second = th.ConnectTimeout(k, 90, 2*sim.Millisecond)
	})

	eng.Schedule(3*sim.Millisecond, func() { k.KillProc(srv) })
	eng.Run()

	if first == nil {
		t.Fatal("pre-crash Connect failed")
	}
	if second != nil {
		t.Fatal("post-crash ConnectTimeout should return nil: listener must be unbound")
	}
	if _, ok := k.listeners[90]; ok {
		t.Fatal("listener for crashed proc still bound")
	}
}

// TestKillProcClosesConnSides checks that messages sent to a crashed process
// stop queueing (its connection sides are closed) and that a blocked sender's
// RecvTimeout fails fast instead of waiting out the full timeout.
func TestKillProcClosesConnSides(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 2)
	srv := k.NewProc("server")
	var serverSide *Endpoint
	srv.Spawn("s", func(th *Thread) {
		l := th.Listen(91)
		serverSide = th.Accept(l)
		for {
			msg := th.Recv(serverSide)
			th.Send(serverSide, 16, msg.Payload) // echo
		}
	})

	cli := k.NewProc("client")
	var okBefore, okAfter bool
	var failAt sim.Time
	cli.Spawn("c", func(th *Thread) {
		th.Sleep(sim.Millisecond)
		conn := th.Connect(k, 91)
		th.Send(conn, 16, nil)
		_, okBefore = th.RecvTimeout(conn, 10*sim.Millisecond)
		th.Sleep(5 * sim.Millisecond) // crash at 3ms; now past it
		th.Send(conn, 16, nil)
		start := eng.Now()
		_, okAfter = th.RecvTimeout(conn, 50*sim.Millisecond)
		failAt = eng.Now() - start
	})

	eng.Schedule(3*sim.Millisecond, func() { k.KillProc(srv) })
	eng.Run()

	if !okBefore {
		t.Fatal("pre-crash echo should succeed")
	}
	if okAfter {
		t.Fatal("post-crash recv should fail: peer side closed")
	}
	if failAt >= 50*sim.Millisecond {
		t.Fatalf("recv from dead peer waited out the full timeout (%v)", failAt)
	}
	if serverSide.mine.inbox != nil {
		t.Fatal("crashed proc's inbox should be released")
	}
}

// TestKillProcUnwindsThreads checks every thread of the killed process exits
// (blocked or about to block) while other processes keep running, and that a
// respawn into the same Proc works — the container-restart path.
func TestKillProcUnwindsThreads(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 2)
	victim := k.NewProc("victim")
	for i := 0; i < 3; i++ {
		victim.Spawn("loop", func(th *Thread) {
			for {
				th.Sleep(100 * sim.Microsecond)
			}
		})
	}
	other := k.NewProc("other")
	ticks := 0
	other.Spawn("t", func(th *Thread) {
		for eng.Now() < 10*sim.Millisecond {
			th.Sleep(sim.Millisecond)
			ticks++
		}
	})

	restarted := false
	eng.Schedule(3*sim.Millisecond, func() { k.KillProc(victim) })
	eng.Schedule(6*sim.Millisecond, func() {
		victim.Spawn("reborn", func(th *Thread) {
			th.Sleep(sim.Microsecond)
			restarted = true
		})
	})
	eng.Run()

	for _, th := range k.threads {
		if th.Proc == victim && !th.done {
			t.Fatalf("victim thread %q still alive after KillProc", th.Name)
		}
	}
	if ticks < 9 {
		t.Fatalf("unrelated proc disturbed by KillProc: %d ticks", ticks)
	}
	if !restarted {
		t.Fatal("respawn into killed proc should run")
	}
}

// TestRecvTimeout checks both arms: a message arriving inside the window is
// delivered, and an empty window returns ok=false at the deadline.
func TestRecvTimeout(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 2)
	p := k.NewProc("app")
	var conn *Endpoint
	p.Spawn("s", func(th *Thread) {
		l := th.Listen(92)
		conn = th.Accept(l)
		th.Sleep(2 * sim.Millisecond)
		th.Send(conn, 8, "late")
	})
	var gotFirst bool
	var second Msg
	var okSecond bool
	var waited sim.Time
	p.Spawn("c", func(th *Thread) {
		th.Sleep(sim.Millisecond)
		c := th.Connect(k, 92)
		start := eng.Now()
		_, gotFirst = th.RecvTimeout(c, 500*sim.Microsecond) // nothing for 1ms → timeout
		waited = eng.Now() - start
		second, okSecond = th.RecvTimeout(c, 10*sim.Millisecond) // arrives ~2ms
	})
	eng.Run()
	if gotFirst {
		t.Fatal("first recv should time out")
	}
	if waited < 500*sim.Microsecond {
		t.Fatalf("timed out early: %v", waited)
	}
	if !okSecond || second.Payload != "late" {
		t.Fatalf("second recv = %+v ok=%v", second, okSecond)
	}
}

// TestConnectTimeoutUnboundPort checks the bounded bind wait: no listener
// ever claims the port, so the dial gives up at (not far past) the deadline.
func TestConnectTimeoutUnboundPort(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 1)
	p := k.NewProc("app")
	var ep *Endpoint = &Endpoint{} // sentinel
	var waited sim.Time
	p.Spawn("c", func(th *Thread) {
		start := eng.Now()
		ep = th.ConnectTimeout(k, 4040, sim.Millisecond)
		waited = eng.Now() - start
	})
	eng.Run()
	if ep != nil {
		t.Fatal("dial to unbound port should return nil")
	}
	if waited < sim.Millisecond || waited > sim.Millisecond+300*sim.Microsecond {
		t.Fatalf("waited %v, want ~1ms", waited)
	}
}
