package kernel

import (
	"testing"

	"ditto/internal/cache"
	"ditto/internal/cpu"
	"ditto/internal/disk"
	"ditto/internal/isa"
	"ditto/internal/netsim"
	"ditto/internal/sim"
)

// testMachine builds a small kernel with n cores, an SSD and a 10Gbe NIC.
func testMachine(eng *sim.Engine, name string, n int) *Kernel {
	cores := make([]*cpu.Core, n)
	l3 := cache.New(cache.Config{Name: "l3", Size: 8 << 20, Assoc: 16, Latency: 40, Policy: cache.PLRU})
	for i := range cores {
		l1i := cache.New(cache.Config{Name: "l1i", Size: 32 << 10, Assoc: 8, Latency: 4, Policy: cache.LRU})
		l1d := cache.New(cache.Config{Name: "l1d", Size: 32 << 10, Assoc: 8, Latency: 4, Policy: cache.LRU})
		l2 := cache.New(cache.Config{Name: "l2", Size: 256 << 10, Assoc: 8, Latency: 12, Policy: cache.LRU})
		cores[i] = cpu.NewCore(cpu.Config{Arch: cpu.Skylake, FreqGHz: 2,
			ICache: &cache.Hierarchy{Caches: [3]*cache.Cache{l1i, l2, l3}, MemLatency: 200},
			DCache: &cache.Hierarchy{Caches: [3]*cache.Cache{l1d, l2, l3}, MemLatency: 200}})
	}
	return New(eng, name, Resources{
		Cores:          cores,
		Disk:           disk.New(eng, disk.SSDConfig()),
		NIC:            netsim.NewNIC(eng, 10),
		PageCachePages: 1024,
	})
}

// aluTrace decodes n independent adds over eight rotating registers.
func aluTrace(n int) *cpu.Trace {
	s := make([]isa.Instr, n)
	for i := range s {
		s[i] = isa.Instr{Op: isa.ADDrr, PC: 0x400000 + uint64(i%16)*4,
			Dst: isa.Reg(i % 8), Src1: isa.Reg(i % 8), Src2: isa.Reg((i + 1) % 8), BranchID: -1}
	}
	return cpu.NewTrace(s)
}

func TestThreadRunAndCounters(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 2)
	p := k.NewProc("app")
	var ipc float64
	p.Spawn("w", func(th *Thread) {
		res := th.RunTrace(aluTrace(10000))
		ipc = res.Counters.IPC()
	})
	eng.Run()
	if ipc < 2 {
		t.Fatalf("IPC = %v", ipc)
	}
	if p.Counters.Instrs != 10000 {
		t.Fatalf("proc counters = %d instrs", p.Counters.Instrs)
	}
	if eng.Now() == 0 {
		t.Fatal("compute should consume simulated time")
	}
}

func TestInstrObserverSeesUserOnly(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 1)
	p := k.NewProc("app")
	var observed int
	p.ObserveInstrs(func(s []isa.Instr) {
		observed += len(s)
		for _, in := range s {
			if in.Kernel {
				t.Error("observer must only see user instructions")
			}
		}
	})
	p.Spawn("w", func(th *Thread) {
		th.RunTrace(aluTrace(500))
		th.Sleep(sim.Microsecond) // kernel stream, not observed
	})
	eng.Run()
	if observed != 500 {
		t.Fatalf("observed %d instrs, want 500", observed)
	}
}

// modelAll is a stub sampler that models every eligible trace with a
// fixed-cycle result carrying no counters, so everything a process is
// charged comes from traces that really executed.
type modelAll struct {
	t        *testing.T
	next     int
	observed int
}

func (s *modelAll) Next(tr *cpu.Trace) (cpu.Result, bool) {
	if tr.Class == cpu.ClassNone {
		s.t.Errorf("ClassNone trace of %d instrs reached the sampler", tr.Len())
	}
	s.next++
	return cpu.Result{Cycles: 100}, true
}

func (s *modelAll) Observe(*cpu.Trace, cpu.Result) { s.observed++ }

func TestSamplerModelsOnlyEligibleTraces(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 1)
	s := &modelAll{t: t}
	k.SetSampler(s)
	k.CreateFile("data", 1<<20)
	p := k.NewProc("app")
	var seen int
	p.ObserveInstrs(func(st []isa.Instr) {
		seen += len(st)
		for _, in := range st {
			if in.Kernel {
				t.Error("observer must only see user instructions")
			}
		}
	})
	body := aluTrace(300)
	body.Class = cpu.ClassBody
	p.Spawn("w", func(th *Thread) {
		th.RunTrace(body)          // eligible: modeled
		th.RunTrace(aluTrace(500)) // ClassNone: executed
		fd := th.Open("data")
		th.Pread(fd, 4096, 0)     // payload-copy tail
		th.WriteFile(fd, 4096, 0) // payload-copy tail
	})
	eng.Run()
	if p.ModeledBodies != 1 || p.ObservedBodies != 1 {
		t.Fatalf("modeled/observed bodies = %d/%d, want 1/1", p.ModeledBodies, p.ObservedBodies)
	}
	if seen != 500 {
		t.Fatalf("observer saw %d instrs, want the 500 of the executed body only", seen)
	}
	if s.next == 0 || s.observed != 0 {
		t.Fatalf("sampler Next/Observe calls = %d/%d, want >0/0", s.next, s.observed)
	}
	// The ad-hoc body and the two single-instruction payload-copy tails
	// executed; every syscall and context-switch stream was modeled.
	if p.Counters.Instrs != 502 || p.Counters.KernelInstrs != 2 {
		t.Fatalf("executed instrs = %d (kernel %d), want 502 (kernel 2)",
			p.Counters.Instrs, p.Counters.KernelInstrs)
	}
}

func TestSchedulerParallelism(t *testing.T) {
	run := func(cores int) sim.Time {
		eng := sim.NewEngine()
		k := testMachine(eng, "m", cores)
		p := k.NewProc("app")
		for i := 0; i < 4; i++ {
			p.Spawn("w", func(th *Thread) { th.RunTrace(aluTrace(40000)) })
		}
		eng.Run()
		return eng.Now()
	}
	t1 := run(1)
	t4 := run(4)
	if t4 > t1/2 {
		t.Fatalf("4 cores should be much faster than 1: %v vs %v", t4, t1)
	}
}

func TestContextSwitchAccounting(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 1)
	p := k.NewProc("app")
	var ta, tb *Thread
	ta = p.Spawn("a", func(th *Thread) {
		for i := 0; i < 5; i++ {
			th.RunTrace(aluTrace(1000))
			th.Yield()
		}
	})
	tb = p.Spawn("b", func(th *Thread) {
		for i := 0; i < 5; i++ {
			th.RunTrace(aluTrace(1000))
			th.Yield()
		}
	})
	eng.Run()
	if ta.CtxSwitches+tb.CtxSwitches == 0 {
		t.Fatal("interleaved threads on one core should context switch")
	}
	if p.Counters.KernelInstrs == 0 {
		t.Fatal("context switches should execute kernel instructions")
	}
}

func TestSleepDuration(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 1)
	p := k.NewProc("app")
	var woke sim.Time
	p.Spawn("s", func(th *Thread) {
		th.Sleep(5 * sim.Millisecond)
		woke = th.Now()
	})
	eng.Run()
	if woke < 5*sim.Millisecond {
		t.Fatalf("woke at %v, want ≥ 5ms", woke)
	}
	if woke > 6*sim.Millisecond {
		t.Fatalf("woke at %v, way past deadline", woke)
	}
}

func TestSyscallObservation(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 1)
	var events []SyscallEvent
	k.ObserveSyscalls(func(ev SyscallEvent) { events = append(events, ev) })
	p := k.NewProc("app")
	k.CreateFile("data", 1<<20)
	p.Spawn("w", func(th *Thread) {
		fd := th.Open("data")
		th.Pread(fd, 8192, 4096)
		th.CloseFD(fd)
	})
	eng.Run()
	var ops []SyscallOp
	for _, ev := range events {
		ops = append(ops, ev.Op)
		if ev.Proc != "app" {
			t.Errorf("event proc = %q", ev.Proc)
		}
	}
	want := []SyscallOp{SysOpen, SysPread, SysClose}
	if len(ops) != 3 {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
	if events[1].Bytes != 8192 || events[1].Offset != 4096 {
		t.Fatalf("pread event = %+v", events[1])
	}
	if events[1].FDClass != "file:data" {
		t.Fatalf("fd class = %q", events[1].FDClass)
	}
}

func TestPageCacheAndDisk(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 1)
	p := k.NewProc("db")
	f := k.CreateFile("big", 1<<30)
	var coldDur, warmDur sim.Time
	p.Spawn("r", func(th *Thread) {
		fd := th.Open("big")
		start := th.Now()
		th.Pread(fd, 65536, 0) // cold: disk
		coldDur = th.Now() - start
		start = th.Now()
		th.Pread(fd, 65536, 0) // warm: page cache
		warmDur = th.Now() - start
	})
	eng.Run()
	if coldDur < 80*sim.Microsecond {
		t.Fatalf("cold read too fast: %v", coldDur)
	}
	if warmDur >= coldDur/2 {
		t.Fatalf("warm read should skip the disk: cold=%v warm=%v", coldDur, warmDur)
	}
	if p.DiskReadBytes != 65536 {
		t.Fatalf("DiskReadBytes = %d", p.DiskReadBytes)
	}
	_ = f
}

func TestPageCacheEviction(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 1) // 1024-page cache = 4MB
	p := k.NewProc("db")
	k.CreateFile("big", 1<<30)
	var first, second sim.Time
	p.Spawn("r", func(th *Thread) {
		fd := th.Open("big")
		th.Pread(fd, 4096, 0)
		// Stream 8MB through the cache, evicting page 0.
		for off := int64(0); off < 8<<20; off += 1 << 20 {
			th.Pread(fd, 1<<20, off)
		}
		s := th.Now()
		th.Pread(fd, 4096, 0)
		first = th.Now() - s
		s = th.Now()
		th.Pread(fd, 4096, 0)
		second = th.Now() - s
	})
	eng.Run()
	if first <= second {
		t.Fatalf("evicted page should re-read from disk: first=%v second=%v", first, second)
	}
	if got := k.PageCacheResident(); got > 1024 {
		t.Fatalf("resident pages %d exceed capacity", got)
	}
}

func TestWarmPages(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 1)
	p := k.NewProc("db")
	f := k.CreateFile("d", 1<<20)
	k.WarmPages(f, 0, 16)
	var dur sim.Time
	p.Spawn("r", func(th *Thread) {
		fd := th.Open("d")
		s := th.Now()
		th.Pread(fd, 16*4096, 0)
		dur = th.Now() - s
	})
	eng.Run()
	if dur > 60*sim.Microsecond {
		t.Fatalf("warmed read should not hit disk: %v", dur)
	}
}

func TestWriteFileAsync(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 1)
	p := k.NewProc("db")
	k.CreateFile("log", 1<<20)
	var dur sim.Time
	p.Spawn("w", func(th *Thread) {
		fd := th.Open("log")
		s := th.Now()
		th.WriteFile(fd, 1<<20, 0)
		dur = th.Now() - s
	})
	eng.Run()
	// Write-back: only the syscall cost, far below the 2ms device time.
	if dur > sim.Millisecond {
		t.Fatalf("write-back should not block on device: %v", dur)
	}
	if p.DiskWritten != 1<<20 {
		t.Fatalf("DiskWritten = %d", p.DiskWritten)
	}
	// The data is dirty in the page cache, not on the device: it reaches
	// the disk at fsync (or dirty-page eviction), not at write time.
	if got := k.LookupFile("log").DirtyPages(); got != 1<<20/PageBytes {
		t.Fatalf("dirty pages = %d, want %d", got, 1<<20/PageBytes)
	}
	if w := k.Resources().Disk.Counters().WriteBytes; w != 0 {
		t.Fatalf("device saw %d bytes before fsync", w)
	}
}

func TestNetworkRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	server := testMachine(eng, "srv", 2)
	client := testMachine(eng, "cli", 2)
	fabric := fabricFunc(func(src, dst *Kernel) netsim.Path {
		return netsim.Path{Src: src.Resources().NIC, Dst: dst.Resources().NIC,
			RTT: 100 * sim.Microsecond}
	})
	server.SetFabric(fabric)
	client.SetFabric(fabric)

	sp := server.NewProc("srv")
	cp := client.NewProc("cli")
	var rtt sim.Time
	var serverGot Msg
	sp.Spawn("acceptor", func(th *Thread) {
		l := th.Listen(80)
		conn := th.Accept(l)
		serverGot = th.Recv(conn)
		th.Send(conn, 4096, "resp")
	})
	cp.Spawn("client", func(th *Thread) {
		th.Sleep(sim.Millisecond) // let the server listen first
		conn := th.Connect(server, 80)
		start := th.Now()
		th.Send(conn, 128, "req")
		th.Recv(conn)
		rtt = th.Now() - start
	})
	eng.Run()
	if serverGot.Bytes != 128 || serverGot.Payload != "req" {
		t.Fatalf("server got %+v", serverGot)
	}
	if rtt < 100*sim.Microsecond {
		t.Fatalf("request RTT %v below propagation delay", rtt)
	}
	if cp.NetTxBytes != 128 || cp.NetRxBytes != 4096 {
		t.Fatalf("client accounting tx=%d rx=%d", cp.NetTxBytes, cp.NetRxBytes)
	}
	if sp.NetRxBytes != 128 || sp.NetTxBytes != 4096 {
		t.Fatalf("server accounting tx=%d rx=%d", sp.NetTxBytes, sp.NetRxBytes)
	}
}

type fabricFunc func(src, dst *Kernel) netsim.Path

func (f fabricFunc) Path(src, dst *Kernel) netsim.Path { return f(src, dst) }

func TestEpollMultiplexing(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 4)
	sp := k.NewProc("srv")
	cp := k.NewProc("cli")

	served := 0
	sp.Spawn("eventloop", func(th *Thread) {
		l := th.Listen(11211)
		ep := th.k.NewEpoll()
		th.EpollAddListener(ep, l)
		for served < 6 {
			for _, r := range th.EpollWait(ep) {
				switch {
				case r.Listener != nil:
					conn := th.TryAccept(r.Listener)
					if conn != nil {
						th.EpollAdd(ep, conn)
					}
				case r.Conn != nil:
					msg, ok := th.TryRecv(r.Conn)
					if ok {
						th.RunTrace(aluTrace(200))
						th.Send(r.Conn, msg.Bytes, nil)
						served++
					}
				}
			}
		}
	})
	for c := 0; c < 3; c++ {
		cp.Spawn("client", func(th *Thread) {
			th.Sleep(sim.Millisecond)
			conn := th.Connect(k, 11211)
			for i := 0; i < 2; i++ {
				th.Send(conn, 64, nil)
				th.Recv(conn)
			}
		})
	}
	eng.Run()
	if served != 6 {
		t.Fatalf("served = %d, want 6", served)
	}
}

func TestWaitQueue(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 2)
	p := k.NewProc("app")
	q := k.NewWaitQueue()
	state := 0
	p.Spawn("waiter", func(th *Thread) {
		for state == 0 {
			th.WaitOn(q)
		}
		state = 2
	})
	p.Spawn("waker", func(th *Thread) {
		th.Sleep(sim.Millisecond)
		state = 1
		q.WakeOne()
	})
	eng.Run()
	if state != 2 {
		t.Fatalf("state = %d, waiter did not resume", state)
	}
	// WakeOne/WakeAll on empty queues are no-ops.
	q.WakeOne()
	q.WakeAll()
}

func TestCloneAndThreadEvents(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 2)
	var spawns, exits, wakes int
	k.ObserveThreads(func(ev ThreadEvent) {
		switch ev.Kind {
		case ThreadSpawn:
			spawns++
		case ThreadExit:
			exits++
		case ThreadWake:
			wakes++
		}
	})
	p := k.NewProc("app")
	p.Spawn("parent", func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Clone("child", func(c *Thread) { c.RunTrace(aluTrace(100)) })
		}
	})
	eng.Run()
	if spawns != 4 || exits != 4 {
		t.Fatalf("spawns=%d exits=%d", spawns, exits)
	}
	if wakes == 0 {
		t.Fatal("no wake events observed")
	}
	if p.SpawnedThreads() != 4 || p.LiveThreads() != 0 {
		t.Fatalf("spawned=%d live=%d", p.SpawnedThreads(), p.LiveThreads())
	}
}

func TestStopTerminatesBlockedThreads(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 1)
	p := k.NewProc("app")
	q := k.NewWaitQueue()
	p.Spawn("stuck", func(th *Thread) {
		for {
			th.WaitOn(q) // never woken
		}
	})
	eng.RunFor(sim.Millisecond)
	k.Stop()
	eng.Run()
	if p.LiveThreads() != 0 {
		t.Fatalf("live threads after stop: %d", p.LiveThreads())
	}
}

func TestKernelStreamsAreKernelMode(t *testing.T) {
	var g kstreamGen
	g.rng = 1
	var buf []isa.Instr
	s := g.gen(&buf, SysSend, 4096, 1<<36)
	if len(s) < 2000 {
		t.Fatalf("send stream too short: %d", len(s))
	}
	var hasCopy bool
	for _, in := range s {
		if !in.Kernel {
			t.Fatal("kernel stream instruction without Kernel flag")
		}
		if in.Op == isa.REPMOVSB && in.RepCount == 4096 {
			hasCopy = true
		}
	}
	if !hasCopy {
		t.Fatal("payload copy missing from send stream")
	}
	// Deterministic given same generator state.
	var g2 kstreamGen
	g2.rng = 1
	var buf2 []isa.Instr
	s2 := g2.gen(&buf2, SysSend, 4096, 1<<36)
	if len(s) != len(s2) || s[100] != s2[100] {
		t.Fatal("kernel stream generation not deterministic")
	}
}

func TestSyscallOpString(t *testing.T) {
	if SysEpollWait.String() != "epoll_wait" || SyscallOp(200).String() != "sys?" {
		t.Fatal("syscall names wrong")
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() (sim.Time, uint64) {
		eng := sim.NewEngine()
		k := testMachine(eng, "m", 2)
		p := k.NewProc("app")
		for i := 0; i < 3; i++ {
			p.Spawn("w", func(th *Thread) {
				for j := 0; j < 10; j++ {
					th.RunTrace(aluTrace(2000))
					th.Sleep(10 * sim.Microsecond)
				}
			})
		}
		eng.Run()
		return eng.Now(), p.Counters.Instrs
	}
	t1, i1 := run()
	t2, i2 := run()
	if t1 != t2 || i1 != i2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, i1, t2, i2)
	}
}
