package app

import (
	"testing"

	"ditto/internal/kernel"
	"ditto/internal/platform"
	"ditto/internal/sim"
)

// drive sends n requests at the app through a closed loop of conns client
// threads on a separate machine and returns mean latency in ms.
func drive(t *testing.T, build func(m *platform.Machine) App, conns, n int) (float64, *kernel.Proc) {
	t.Helper()
	eng := sim.NewEngine()
	cl := platform.NewCluster(100 * sim.Microsecond)
	server := platform.NewMachine(eng, "srv", platform.A(), platform.WithCoreCount(8))
	client := platform.NewMachine(eng, "cli", platform.A(), platform.WithCoreCount(8))
	cl.Add(server)
	cl.Add(client)

	a := build(server)
	a.Start()

	cp := client.Kernel.NewProc("client")
	done := 0
	var totalLat sim.Time
	for c := 0; c < conns; c++ {
		cp.Spawn("cli", func(th *kernel.Thread) {
			th.Sleep(sim.Millisecond)
			conn := th.Connect(server.Kernel, a.Port())
			for i := 0; i < n/conns; i++ {
				req := &Request{Kind: KindReadHomeTimeline, SentAt: th.Now()}
				th.Send(conn, 64, req)
				msg := th.Recv(conn)
				got := msg.Payload.(*Request)
				totalLat += th.Now() - got.SentAt
				done++
			}
		})
	}
	eng.RunUntil(20 * sim.Second)
	if done != n/conns*conns {
		t.Fatalf("completed %d of %d requests", done, n)
	}
	server.Kernel.Stop()
	client.Kernel.Stop()
	eng.Run()
	return (totalLat / sim.Time(done)).Millis(), a.Proc()
}

func TestMemcachedServes(t *testing.T) {
	lat, proc := drive(t, func(m *platform.Machine) App {
		return NewMemcached(m, 11211, 42)
	}, 4, 80)
	if lat <= 0 || lat > 5 {
		t.Fatalf("memcached mean latency = %vms", lat)
	}
	if proc.Counters.Instrs == 0 || proc.Counters.KernelInstrs == 0 {
		t.Fatal("no instructions attributed")
	}
	ks := proc.Counters.KernelShare()
	if ks < 0.3 || ks > 0.95 {
		t.Fatalf("memcached kernel share = %v, want substantial (networked service)", ks)
	}
	if proc.NetTxBytes == 0 {
		t.Fatal("no network bytes")
	}
	if proc.SpawnedThreads() != 5 {
		t.Fatalf("memcached threads = %d, want dispatcher + 4 workers", proc.SpawnedThreads())
	}
}

func TestNginxServes(t *testing.T) {
	lat, proc := drive(t, func(m *platform.Machine) App {
		return NewNginx(m, 80, 43)
	}, 2, 40)
	if lat <= 0 || lat > 10 {
		t.Fatalf("nginx mean latency = %vms", lat)
	}
	// Static content is warm: no disk reads.
	if proc.DiskReadBytes != 0 {
		t.Fatalf("nginx should serve from page cache, read %d bytes", proc.DiskReadBytes)
	}
	if proc.SpawnedThreads() != 1 {
		t.Fatalf("nginx workers = %d, want 1", proc.SpawnedThreads())
	}
}

func TestMongoDBDiskBound(t *testing.T) {
	lat, proc := drive(t, func(m *platform.Machine) App {
		return NewMongoDB(m, 27017, 44)
	}, 2, 30)
	if proc.DiskReadBytes == 0 {
		t.Fatal("mongodb should read from disk (40GB uniform >> page cache)")
	}
	// SSD random read ≈ 160µs for 40KB: latency well above memcached's.
	if lat < 0.1 {
		t.Fatalf("mongodb latency = %vms, suspiciously fast for disk I/O", lat)
	}
	// Thread-per-connection: acceptor + 2 conn workers.
	if proc.SpawnedThreads() != 3 {
		t.Fatalf("mongodb threads = %d, want 3", proc.SpawnedThreads())
	}
}

func TestRedisSingleThreaded(t *testing.T) {
	lat, proc := drive(t, func(m *platform.Machine) App {
		return NewRedis(m, 6379, 45)
	}, 4, 60)
	if lat <= 0 || lat > 5 {
		t.Fatalf("redis mean latency = %vms", lat)
	}
	if proc.SpawnedThreads() != 1 {
		t.Fatalf("redis threads = %d, want 1", proc.SpawnedThreads())
	}
}

func TestSocialNetworkEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	cl := platform.NewCluster(100 * sim.Microsecond)
	machines := []*platform.Machine{
		platform.NewMachine(eng, "node0", platform.A(), platform.WithCoreCount(8)),
		platform.NewMachine(eng, "node1", platform.A(), platform.WithCoreCount(8)),
	}
	client := platform.NewMachine(eng, "cli", platform.A(), platform.WithCoreCount(4))
	for _, m := range machines {
		cl.Add(m)
	}
	cl.Add(client)

	i := 0
	sn := NewSocialNetwork(func(string) *platform.Machine {
		i++
		return machines[i%2]
	}, 9000, 46)
	sn.Start()

	cp := client.Kernel.NewProc("wrk2")
	kinds := []int{KindComposePost, KindReadHomeTimeline, KindReadUserTimeline}
	done := 0
	var maxLat sim.Time
	cp.Spawn("cli", func(th *kernel.Thread) {
		th.Sleep(2 * sim.Millisecond)
		conn := th.Connect(sn.Frontend.M.Kernel, sn.Port())
		for r := 0; r < 15; r++ {
			req := &Request{Kind: kinds[r%3], SentAt: th.Now()}
			th.Send(conn, 128, req)
			msg := th.Recv(conn)
			lat := th.Now() - msg.Payload.(*Request).SentAt
			if lat > maxLat {
				maxLat = lat
			}
			done++
		}
	})
	eng.RunUntil(30 * sim.Second)
	if done != 15 {
		t.Fatalf("completed %d requests", done)
	}
	if maxLat <= 0 || maxLat > sim.Second {
		t.Fatalf("max latency = %v", maxLat)
	}

	// Traces were collected; topology must reconstruct as an acyclic graph
	// containing the key tiers.
	spans := sn.Collector.Spans()
	if len(spans) < 15 {
		t.Fatalf("collected %d spans", len(spans))
	}
	// text-service and social-graph-service must have executed work.
	if sn.Tier("text-service").Proc().Counters.Instrs == 0 {
		t.Fatal("text-service idle")
	}
	if sn.Tier("social-graph-service").Proc().Counters.Instrs == 0 {
		t.Fatal("social-graph-service idle")
	}
	// Storage tiers performed disk I/O.
	if sn.Tier("post-storage-mongodb").Proc().DiskReadBytes == 0 {
		t.Fatal("post-storage-mongodb did no disk I/O")
	}
	for _, m := range machines {
		m.Kernel.Stop()
	}
	client.Kernel.Stop()
	eng.Run()
}

func TestKVWritePaths(t *testing.T) {
	// Kind 1 = SET for memcached and redis: small acknowledgement instead
	// of a value transfer.
	for _, tc := range []struct {
		name  string
		build func(m *platform.Machine) App
	}{
		{"memcached", func(m *platform.Machine) App { return NewMemcached(m, 11211, 91) }},
		{"redis", func(m *platform.Machine) App { return NewRedis(m, 6379, 92) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			cl := platform.NewCluster(100 * sim.Microsecond)
			srv := platform.NewMachine(eng, "srv", platform.A(), platform.WithCoreCount(4))
			cli := platform.NewMachine(eng, "cli", platform.A(), platform.WithCoreCount(4))
			cl.Add(srv)
			cl.Add(cli)
			a := tc.build(srv)
			a.Start()
			cp := cli.Kernel.NewProc("c")
			var getBytes, setBytes int
			cp.Spawn("cli", func(th *kernel.Thread) {
				conn := th.Connect(srv.Kernel, a.Port())
				th.Send(conn, 64, &Request{Kind: 0, SentAt: th.Now()})
				getBytes = th.Recv(conn).Bytes
				th.Send(conn, 4096, &Request{Kind: 1, SentAt: th.Now()})
				setBytes = th.Recv(conn).Bytes
			})
			eng.RunUntil(5 * sim.Second)
			if getBytes == 0 || setBytes == 0 {
				t.Fatalf("no responses: get=%d set=%d", getBytes, setBytes)
			}
			if setBytes >= getBytes {
				t.Fatalf("SET ack (%dB) should be smaller than GET value (%dB)", setBytes, getBytes)
			}
			srv.Kernel.Stop()
			cli.Kernel.Stop()
			eng.Run()
		})
	}
}
