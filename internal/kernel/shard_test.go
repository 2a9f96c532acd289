package kernel

import (
	"fmt"
	"strings"
	"testing"

	"ditto/internal/netsim"
	"ditto/internal/sim"
)

// runShardedEcho builds two machines on separate shards of one World — a
// server echoing requests and a client driving two connections — and returns
// a log of everything the client observed. The log must be byte-identical at
// every worker width: this is the kernel-level slice of the cross-shard
// determinism contract (connect handshake, message delivery, FIN
// propagation all cross the shard boundary here).
func runShardedEcho(width int) string {
	const rtt = 100 * sim.Microsecond
	w := sim.NewWorld(rtt/2, width)
	server := testMachine(w.NewShard(), "server", 2)
	client := testMachine(w.NewShard(), "client", 2)
	fabric := fabricFunc(func(src, dst *Kernel) netsim.Path {
		return netsim.Path{Src: src.Resources().NIC, Dst: dst.Resources().NIC, RTT: rtt}
	})
	server.SetFabric(fabric)
	client.SetFabric(fabric)

	var log []string
	sp := server.NewProc("srv")
	sp.Spawn("acceptor", func(th *Thread) {
		l := th.Listen(80)
		for i := 0; i < 2; i++ {
			conn := th.Accept(l)
			sp.Spawn(fmt.Sprintf("echo%d", i), func(th *Thread) {
				for {
					msg, ok := th.RecvTimeout(conn, 5*sim.Millisecond)
					if !ok {
						return
					}
					th.Send(conn, msg.Bytes, msg.Payload)
				}
			})
		}
	})
	cp := client.NewProc("cli")
	for c := 0; c < 2; c++ {
		c := c
		cp.Spawn(fmt.Sprintf("conn%d", c), func(th *Thread) {
			conn := th.Connect(server, 80)
			for i := 0; i < 20; i++ {
				th.Send(conn, 64+c, i)
				reply := th.Recv(conn)
				log = append(log, fmt.Sprintf("%v c%d i%d b%d", client.eng.Now(), c, reply.Payload, reply.Bytes))
			}
			th.CloseConn(conn)
		})
	}
	w.RunUntil(20 * sim.Millisecond)
	server.Stop()
	client.Stop()
	w.Run()
	return strings.Join(log, "\n")
}

func TestCrossShardEchoDeterministicAcrossWidths(t *testing.T) {
	want := runShardedEcho(1)
	if !strings.Contains(want, "c0 i19") || !strings.Contains(want, "c1 i19") {
		t.Fatalf("echo fixture incomplete:\n%s", want)
	}
	for _, width := range []int{2, 8} {
		for rep := 0; rep < 3; rep++ {
			if got := runShardedEcho(width); got != want {
				t.Fatalf("width %d rep %d diverged from serial run", width, rep)
			}
		}
	}
}

// crossShardEchoPools runs n round trips over one connection between two
// machines on separate shards and returns the size of each kernel's
// delivery pool afterwards.
func crossShardEchoPools(t *testing.T, n int) (server, client int) {
	const rtt = 100 * sim.Microsecond
	w := sim.NewWorld(rtt/2, 1)
	srv := testMachine(w.NewShard(), "server", 1)
	cli := testMachine(w.NewShard(), "client", 1)
	fabric := fabricFunc(func(src, dst *Kernel) netsim.Path {
		return netsim.Path{Src: src.Resources().NIC, Dst: dst.Resources().NIC, RTT: rtt}
	})
	srv.SetFabric(fabric)
	cli.SetFabric(fabric)

	srv.NewProc("srv").Spawn("echo", func(th *Thread) {
		conn := th.Accept(th.Listen(80))
		for {
			msg, ok := th.RecvTimeout(conn, 5*sim.Millisecond)
			if !ok {
				return
			}
			th.Send(conn, msg.Bytes, msg.Payload)
		}
	})
	done := 0
	cli.NewProc("cli").Spawn("cli", func(th *Thread) {
		conn := th.Connect(srv, 80)
		for i := 0; i < n; i++ {
			th.Send(conn, 64, i)
			th.Recv(conn)
			done++
		}
		th.CloseConn(conn)
	})
	w.RunUntil(sim.Time(n)*2*rtt + 20*sim.Millisecond)
	srv.Stop()
	cli.Stop()
	w.Run()
	if done != n {
		t.Fatalf("echo completed %d of %d round trips", done, n)
	}
	return len(srv.deliveries), len(cli.deliveries)
}

// TestCrossShardDeliveriesNotRetained checks that cross-shard message
// deliveries do not pile up in any kernel's pool: only same-shard sends
// draw from a pool, so a pool that took cross-shard deliveries back would
// hold one object per message ever received.
func TestCrossShardDeliveriesNotRetained(t *testing.T) {
	const bound = 4
	s100, c100 := crossShardEchoPools(t, 100)
	s1000, c1000 := crossShardEchoPools(t, 1000)
	if s1000 > bound || c1000 > bound || s1000 != s100 || c1000 != c100 {
		t.Fatalf("delivery pools (server, client) hold (%d, %d) after 100 round trips and (%d, %d) after 1000; want at most %d each, independent of n",
			s100, c100, s1000, c1000, bound)
	}
}

// TestCrossShardDeadAfterFIN checks that a close on one shard becomes
// observable on the peer's shard exactly one one-way delay later, via the
// FIN — never by reading remote state directly.
func TestCrossShardDeadAfterFIN(t *testing.T) {
	const rtt = 100 * sim.Microsecond
	w := sim.NewWorld(rtt/2, 2)
	server := testMachine(w.NewShard(), "server", 2)
	client := testMachine(w.NewShard(), "client", 2)
	fabric := fabricFunc(func(src, dst *Kernel) netsim.Path {
		return netsim.Path{Src: src.Resources().NIC, Dst: dst.Resources().NIC, RTT: rtt}
	})
	server.SetFabric(fabric)
	client.SetFabric(fabric)

	sp := server.NewProc("srv")
	sp.Spawn("srv", func(th *Thread) {
		l := th.Listen(80)
		conn := th.Accept(l)
		th.Sleep(sim.Millisecond)
		th.CloseConn(conn)
	})
	var deadAt sim.Time
	cp := client.NewProc("cli")
	cp.Spawn("cli", func(th *Thread) {
		conn := th.Connect(server, 80)
		for !conn.Dead() {
			if _, ok := th.RecvTimeout(conn, 10*sim.Millisecond); !ok && conn.Dead() {
				break
			}
		}
		deadAt = client.eng.Now()
	})
	w.RunUntil(20 * sim.Millisecond)
	server.Stop()
	client.Stop()
	w.Run()
	if deadAt == 0 {
		t.Fatal("client never observed the peer close")
	}
	if deadAt < sim.Millisecond+rtt/2 {
		t.Fatalf("close observed at %v, before the FIN could arrive", deadAt)
	}
}
