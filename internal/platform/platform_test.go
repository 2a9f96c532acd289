package platform

import (
	"testing"

	"ditto/internal/cpu"
	"ditto/internal/isa"
	"ditto/internal/kernel"
	"ditto/internal/sim"
)

func TestTable1Specs(t *testing.T) {
	a, b, c := A(), B(), C()
	if a.Arch.Name != "skylake" || b.Arch.Name != "haswell" || c.Arch.Name != "skylake" {
		t.Fatal("CPU families wrong")
	}
	if !(a.FreqGHz < b.FreqGHz && b.FreqGHz < c.FreqGHz) {
		t.Fatal("base frequencies should order A < B < C (Table 1)")
	}
	if !(c.Cores < b.Cores && b.Cores < a.Cores) {
		t.Fatal("core counts should order C < B < A")
	}
	if a.L2KB != 1024 || b.L2KB != 256 || c.L2KB != 256 {
		t.Fatal("L2 sizes wrong")
	}
	if !(c.LLCKB < b.LLCKB && b.LLCKB < a.LLCKB) {
		t.Fatal("LLC sizes should order C < B < A")
	}
	if a.NICGbps != 10 || b.NICGbps != 1 || c.NICGbps != 1 {
		t.Fatal("NIC speeds wrong")
	}
	if len(Specs()) != 3 {
		t.Fatal("Specs() should have three entries")
	}
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

func TestMachineBuildAndRun(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, "a0", A(), WithCoreCount(4))
	if len(m.Cores) != 4 {
		t.Fatalf("cores = %d", len(m.Cores))
	}
	p := m.Kernel.NewProc("app")
	p.Spawn("w", func(th *kernel.Thread) { th.RunTrace(aluTrace(10000)) })
	eng.Run()
	if p.Counters.Instrs != 10000 {
		t.Fatalf("instrs = %d", p.Counters.Instrs)
	}
}

func TestFrequencyScalingChangesWallTime(t *testing.T) {
	run := func(f float64) sim.Time {
		eng := sim.NewEngine()
		m := NewMachine(eng, "m", A(), WithCoreCount(2), WithFreqGHz(f))
		p := m.Kernel.NewProc("app")
		p.Spawn("w", func(th *kernel.Thread) { th.RunTrace(aluTrace(50000)) })
		eng.Run()
		return eng.Now()
	}
	slow := run(1.1)
	fast := run(2.1)
	if fast >= slow {
		t.Fatalf("higher frequency must be faster: %v vs %v", fast, slow)
	}
	ratio := float64(slow) / float64(fast)
	if ratio < 1.5 || ratio > 2.4 {
		t.Fatalf("scaling ratio = %v, want ≈ 2.1/1.1", ratio)
	}
}

func TestSMTFactorOption(t *testing.T) {
	run := func(opts ...Option) sim.Time {
		eng := sim.NewEngine()
		m := NewMachine(eng, "m", A(), append(opts, WithCoreCount(1))...)
		p := m.Kernel.NewProc("app")
		p.Spawn("w", func(th *kernel.Thread) { th.RunTrace(aluTrace(50000)) })
		eng.Run()
		return eng.Now()
	}
	alone := run()
	ht := run(WithSMTFactor(0.5))
	if ht < 2*alone*9/10 {
		t.Fatalf("HT sharing should ~double runtime: alone=%v ht=%v", alone, ht)
	}
}

func TestPrivateCacheScaleHurts(t *testing.T) {
	run := func(opts ...Option) float64 {
		eng := sim.NewEngine()
		m := NewMachine(eng, "m", A(), append(opts, WithCoreCount(1))...)
		p := m.Kernel.NewProc("app")
		p.Spawn("w", func(th *kernel.Thread) {
			n := 30000
			s := make([]isa.Instr, n)
			for i := range s {
				s[i] = isa.Instr{Op: isa.MOVload, PC: 0x400000 + uint64(i%16)*4,
					Dst: isa.Reg(i % 8), Src1: isa.R10,
					Addr: 0x1000000 + (uint64(i)*64)%(24<<10), BranchID: -1}
			}
			th.RunTrace(cpu.NewTrace(s))
		})
		eng.Run()
		return p.Counters.L1dMissRate()
	}
	full := run()
	halved := run(WithPrivateCacheScale(0.5, 0.5))
	if halved <= full {
		t.Fatalf("halved L1d should miss more: full=%v halved=%v", full, halved)
	}
}

func TestClusterPathsAndLoopback(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(100 * sim.Microsecond)
	m1 := NewMachine(eng, "m1", C())
	m2 := NewMachine(eng, "m2", C())
	cl.Add(m1)
	cl.Add(m2)
	if len(cl.Machines()) != 2 {
		t.Fatal("machines not registered")
	}
	p := cl.Path(m1.Kernel, m2.Kernel)
	if p.Loopback || p.Src != m1.NIC || p.Dst != m2.NIC || p.RTT != 100*sim.Microsecond {
		t.Fatalf("cross-machine path = %+v", p)
	}
	lo := cl.Path(m1.Kernel, m1.Kernel)
	if !lo.Loopback {
		t.Fatal("same-machine path should be loopback")
	}
}

func TestClusterEndToEndRPC(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(100 * sim.Microsecond)
	srv := NewMachine(eng, "srv", A(), WithCoreCount(2))
	cli := NewMachine(eng, "cli", A(), WithCoreCount(2))
	cl.Add(srv)
	cl.Add(cli)

	sp := srv.Kernel.NewProc("server")
	cp := cli.Kernel.NewProc("client")
	var rtt sim.Time
	sp.Spawn("srv", func(th *kernel.Thread) {
		l := th.Listen(80)
		c := th.Accept(l)
		th.Recv(c)
		th.RunTrace(aluTrace(5000))
		th.Send(c, 4096, nil)
	})
	cp.Spawn("cli", func(th *kernel.Thread) {
		th.Sleep(sim.Millisecond)
		c := th.Connect(srv.Kernel, 80)
		start := th.Now()
		th.Send(c, 100, nil)
		th.Recv(c)
		rtt = th.Now() - start
	})
	eng.Run()
	if rtt < 100*sim.Microsecond || rtt > 5*sim.Millisecond {
		t.Fatalf("RPC rtt = %v", rtt)
	}
}

func TestMemBWDemandInflatesLatency(t *testing.T) {
	run := func(opts ...Option) sim.Time {
		eng := sim.NewEngine()
		m := NewMachine(eng, "m", A(), append(opts, WithCoreCount(1))...)
		p := m.Kernel.NewProc("app")
		p.Spawn("w", func(th *kernel.Thread) {
			n := 20000
			s := make([]isa.Instr, n)
			for i := range s {
				// Pointer chase through 64MB: every access reaches DRAM.
				s[i] = isa.Instr{Op: isa.MOVptr, PC: 0x400000 + uint64(i%16)*4,
					Dst: isa.R11, Src1: isa.R11,
					Addr: 0x1000000 + uint64(i*8192)%(64<<20), BranchID: -1}
			}
			th.RunTrace(cpu.NewTrace(s))
		})
		eng.Run()
		return eng.Now()
	}
	quiet := run()
	contended := run(WithMemBWDemand(90))
	if contended <= quiet {
		t.Fatalf("memory contention should slow DRAM-bound work: %v vs %v", quiet, contended)
	}
}

func TestLLCScale(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, "m", C(), WithLLCScale(0.5))
	want := C().LLCKB << 10 / 2
	if got := m.LLC.Config().Size; got > want || got < want*9/10 {
		t.Fatalf("scaled LLC = %d, want ≈ %d", got, want)
	}
}

func TestScaleBytesQuantum(t *testing.T) {
	if v := scaleBytes(1024, 0.001, 8); v != 8*64 {
		t.Fatalf("minimum quantum violated: %d", v)
	}
	if v := scaleBytes(1<<20, 1, 16); v != 1<<20 {
		t.Fatalf("identity scale changed size: %d", v)
	}
	if v := scaleBytes(1<<20, 0, 16); v != 1<<20 {
		t.Fatalf("zero scale should mean 1.0: %d", v)
	}
}
