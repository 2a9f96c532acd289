package cpu

import (
	"math"
	"testing"

	"ditto/internal/cache"
	"ditto/internal/isa"
	"ditto/internal/sim"
)

// testCore builds a Skylake-ish core with a small private hierarchy.
func testCore() *Core {
	l1i := cache.New(cache.Config{Name: "l1i", Size: 32 << 10, Assoc: 8, Latency: 4, Policy: cache.LRU})
	l1d := cache.New(cache.Config{Name: "l1d", Size: 32 << 10, Assoc: 8, Latency: 4, Policy: cache.LRU})
	l2 := cache.New(cache.Config{Name: "l2", Size: 1 << 20, Assoc: 16, Latency: 12, Policy: cache.LRU})
	l3 := cache.New(cache.Config{Name: "l3", Size: 8 << 20, Assoc: 16, Latency: 40, Policy: cache.LRU})
	return NewCore(Config{
		Arch:    Skylake,
		FreqGHz: 2.0,
		ICache:  &cache.Hierarchy{Caches: [3]*cache.Cache{l1i, l2, l3}, MemLatency: 200},
		DCache:  &cache.Hierarchy{Caches: [3]*cache.Cache{l1d, l2, l3}, MemLatency: 200},
	})
}

// execute decodes s and runs it on c.
func execute(c *Core, s []isa.Instr) Result { return c.ExecuteTrace(NewTrace(s)) }

// independentALU builds n adds across 8 rotating destination registers with
// sequential PCs in one line-sized loop (tiny i-footprint).
func independentALU(n int) []isa.Instr {
	s := make([]isa.Instr, n)
	for i := range s {
		s[i] = isa.Instr{
			Op:       isa.ADDrr,
			PC:       0x400000 + uint64(i%16)*4,
			Dst:      isa.Reg(i % 8),
			Src1:     isa.Reg(i % 8),
			Src2:     isa.Reg((i + 1) % 8),
			BranchID: -1,
		}
	}
	return s
}

func TestIndependentALUNearWidth(t *testing.T) {
	c := testCore()
	res := execute(c, independentALU(20000))
	ipc := res.Counters.IPC()
	if ipc < 3.0 || ipc > 4.2 {
		t.Fatalf("independent ALU IPC = %v, want near issue width 4", ipc)
	}
}

func TestDependencyChainSerializes(t *testing.T) {
	c := testCore()
	n := 10000
	s := make([]isa.Instr, n)
	for i := range s {
		s[i] = isa.Instr{Op: isa.ADDrr, PC: 0x400000 + uint64(i%16)*4,
			Dst: isa.R1, Src1: isa.R1, Src2: isa.R1, BranchID: -1}
	}
	res := execute(c, s)
	ipc := res.Counters.IPC()
	if ipc > 1.1 {
		t.Fatalf("serial chain IPC = %v, want ≤ ~1", ipc)
	}
	indep := execute(c, independentALU(n))
	if indep.Counters.IPC() <= ipc {
		t.Fatal("independent stream should beat serial chain")
	}
}

func TestPortContention(t *testing.T) {
	c := testCore()
	n := 8000
	crc := make([]isa.Instr, n)
	for i := range crc {
		crc[i] = isa.Instr{Op: isa.CRC32rr, PC: 0x400000 + uint64(i%16)*4,
			Dst: isa.Reg(i % 8), Src1: isa.Reg(i % 8), Src2: isa.Reg((i + 3) % 8), BranchID: -1}
	}
	resCRC := execute(c, crc)
	resADD := execute(c, independentALU(n))
	// CRC32 is port-1-only: throughput ≤ 1/cycle vs ~4/cycle for adds.
	if resCRC.Counters.IPC() > 1.2 {
		t.Fatalf("port-1-only stream IPC = %v, want ≤ ~1", resCRC.Counters.IPC())
	}
	if resADD.Counters.IPC() < 2.5*resCRC.Counters.IPC() {
		t.Fatalf("port contention not visible: add=%v crc=%v",
			resADD.Counters.IPC(), resCRC.Counters.IPC())
	}
}

func TestPointerChaseMLP(t *testing.T) {
	c := testCore()
	// 4MB of pointer chasing: every load depends on the previous one and
	// misses L1/L2 once the footprint exceeds them.
	n := 20000
	chase := make([]isa.Instr, n)
	for i := range chase {
		chase[i] = isa.Instr{Op: isa.MOVptr, PC: 0x400000 + uint64(i%16)*4,
			Dst: isa.R11, Src1: isa.R11,
			Addr: uint64(i*8192) % (64 << 20), BranchID: -1}
	}
	resChase := execute(c, chase)

	c2 := testCore()
	// Same addresses, but independent loads: MLP overlaps misses.
	indep := make([]isa.Instr, n)
	for i := range indep {
		indep[i] = isa.Instr{Op: isa.MOVload, PC: 0x400000 + uint64(i%16)*4,
			Dst: isa.Reg(i % 8), Src1: isa.R10,
			Addr: uint64(i*8192) % (64 << 20), BranchID: -1}
	}
	resIndep := execute(c2, indep)
	if resChase.Cycles < 2*resIndep.Cycles {
		t.Fatalf("pointer chasing should serialize misses: chase=%v indep=%v",
			resChase.Cycles, resIndep.Cycles)
	}
}

func TestBranchMispredictionCost(t *testing.T) {
	mk := func(pattern func(i int) bool) float64 {
		c := testCore()
		n := 20000
		s := make([]isa.Instr, n)
		state := uint64(99)
		for i := range s {
			if i%4 == 3 {
				_ = state
				s[i] = isa.Instr{Op: isa.JCC, PC: 0x400000 + uint64(i%16)*4,
					BranchID: 1, Taken: pattern(i)}
			} else {
				s[i] = independentALU(1)[0]
				s[i].PC = 0x400000 + uint64(i%16)*4
			}
		}
		res := execute(c, s)
		return res.Counters.IPC()
	}
	biased := mk(func(i int) bool { return true })
	state := uint64(0xABCDEF)
	random := mk(func(i int) bool {
		state = state*6364136223846793005 + 1442695040888963407
		return state>>63 == 1
	})
	if biased < 1.3*random {
		t.Fatalf("mispredictions should hurt IPC: biased=%v random=%v", biased, random)
	}
}

func TestICacheFootprint(t *testing.T) {
	run := func(footprint uint64) Counters {
		c := testCore()
		n := 40000
		s := make([]isa.Instr, n)
		for i := range s {
			s[i] = isa.Instr{Op: isa.ADDrr, PC: 0x400000 + (uint64(i)*4)%footprint,
				Dst: isa.Reg(i % 8), Src1: isa.Reg(i % 8), Src2: isa.Reg((i + 1) % 8), BranchID: -1}
		}
		return execute(c, s).Counters
	}
	small := run(1 << 10)   // 1KB loop: fits L1i
	large := run(256 << 10) // 256KB loop: thrashes 32KB L1i
	if small.L1iMissRate() > 0.01 {
		t.Fatalf("small footprint L1i miss rate = %v", small.L1iMissRate())
	}
	if large.L1iMissRate() < 0.5*float64(1)/16 {
		t.Fatalf("large footprint L1i miss rate = %v, want ≳ 1/16 of fetches", large.L1iMissRate())
	}
	if small.IPC() <= large.IPC() {
		t.Fatal("i-cache misses should lower IPC")
	}
	if large.Frontend <= small.Frontend {
		t.Fatal("i-cache misses should appear as frontend cycles")
	}
}

func TestDCacheWorkingSets(t *testing.T) {
	run := func(ws uint64) Counters {
		c := testCore()
		n := 30000
		s := make([]isa.Instr, n)
		for i := range s {
			s[i] = isa.Instr{Op: isa.MOVload, PC: 0x400000 + uint64(i%16)*4,
				Dst: isa.Reg(i % 8), Src1: isa.R10,
				Addr: 0x10000000 + (uint64(i)*64)%ws, BranchID: -1}
		}
		return execute(c, s).Counters
	}
	small := run(16 << 10) // fits L1d
	big := run(16 << 20)   // exceeds LLC
	if small.L1dMissRate() > 0.02 {
		t.Fatalf("small WS L1d miss = %v", small.L1dMissRate())
	}
	if big.L1dMissRate() < 0.5 {
		t.Fatalf("big WS L1d miss = %v", big.L1dMissRate())
	}
	if big.MemAcc == 0 {
		t.Fatal("big WS should reach memory")
	}
	if small.IPC() <= big.IPC() {
		t.Fatal("cache misses should lower IPC")
	}
}

func TestTopDownSumsToCycles(t *testing.T) {
	c := testCore()
	n := 10000
	s := make([]isa.Instr, 0, n)
	state := uint64(7)
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			state = state*6364136223846793005 + 1
			s = append(s, isa.Instr{Op: isa.JCC, PC: 0x400000 + (uint64(i)*4)%(128<<10),
				BranchID: 1, Taken: state>>63 == 1})
		case 1:
			s = append(s, isa.Instr{Op: isa.MOVload, PC: 0x400000 + (uint64(i)*4)%(128<<10),
				Dst: isa.R3, Src1: isa.R10, Addr: 0x20000000 + (uint64(i)*64)%(8<<20), BranchID: -1})
		default:
			s = append(s, isa.Instr{Op: isa.ADDrr, PC: 0x400000 + (uint64(i)*4)%(128<<10),
				Dst: isa.Reg(i % 8), Src1: isa.Reg(i % 8), Src2: isa.Reg((i + 1) % 8), BranchID: -1})
		}
	}
	res := execute(c, s)
	ctr := res.Counters
	sum := ctr.Retiring + ctr.Frontend + ctr.BadSpec + ctr.Backend
	if math.Abs(sum-ctr.Cycles) > 1e-6*ctr.Cycles+1e-6 {
		t.Fatalf("top-down sum %v != cycles %v", sum, ctr.Cycles)
	}
	for _, v := range []float64{ctr.Retiring, ctr.Frontend, ctr.BadSpec, ctr.Backend} {
		if v < 0 {
			t.Fatalf("negative top-down component: %+v", ctr)
		}
	}
}

func TestRepStringOps(t *testing.T) {
	c := testCore()
	s := []isa.Instr{{Op: isa.REPMOVSB, PC: 0x400000, Addr: 0x30000000,
		RepCount: 4096, BranchID: -1}}
	res := execute(c, s)
	if res.Counters.L1dAcc < 64 {
		t.Fatalf("4KB rep movsb should access 64 lines, got %d", res.Counters.L1dAcc)
	}
	if res.Cycles < 100 {
		t.Fatalf("rep op too cheap: %v cycles", res.Cycles)
	}
	if res.Counters.LoadBytes < 4096 {
		t.Fatalf("LoadBytes = %d", res.Counters.LoadBytes)
	}
}

func TestCoherenceInvalidation(t *testing.T) {
	run := func(invRate float64) float64 {
		c := testCore()
		c.SetCoherenceInvRate(invRate)
		n := 20000
		s := make([]isa.Instr, n)
		for i := range s {
			s[i] = isa.Instr{Op: isa.MOVload, PC: 0x400000 + uint64(i%16)*4,
				Dst: isa.Reg(i % 8), Src1: isa.R10,
				Addr:   0x40000000 + (uint64(i)*64)%(4<<10), // tiny hot set
				Shared: true, BranchID: -1}
		}
		res := execute(c, s)
		return res.Counters.L1dMissRate()
	}
	private := run(0)
	shared := run(0.3)
	if shared < private+0.1 {
		t.Fatalf("coherence invalidations should add misses: %v vs %v", shared, private)
	}
}

func TestKernelShareAndCountersAdd(t *testing.T) {
	c := testCore()
	s := independentALU(100)
	for i := 50; i < 100; i++ {
		s[i].Kernel = true
	}
	res := execute(c, s)
	if got := res.Counters.KernelShare(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("KernelShare = %v", got)
	}
	var total Counters
	total.Add(res.Counters)
	total.Add(res.Counters)
	if total.Instrs != 200 {
		t.Fatalf("Add: Instrs = %d", total.Instrs)
	}
	if total.Cycles != 2*res.Counters.Cycles {
		t.Fatal("Add: cycles not summed")
	}
}

func TestSMTFactorSlowsCore(t *testing.T) {
	alone := testCore()
	shared := testCore()
	shared.SetSMTFactor(0.5)
	s := independentALU(20000)
	a := execute(alone, s)
	b := execute(shared, append([]isa.Instr(nil), s...))
	if b.Cycles < 1.5*a.Cycles {
		t.Fatalf("SMT sharing should roughly halve throughput: alone=%v shared=%v", a.Cycles, b.Cycles)
	}
}

func TestTimeConversion(t *testing.T) {
	c := testCore() // 2 GHz
	d := c.Time(2000)
	if d != sim.Time(1000*sim.Nanosecond) {
		t.Fatalf("2000 cycles at 2GHz = %v, want 1us", d)
	}
}

func TestCountersRatesEmpty(t *testing.T) {
	var ctr Counters
	if ctr.IPC() != 0 || ctr.CPI() != 0 || ctr.L1iMissRate() != 0 ||
		ctr.BranchMissRate() != 0 || ctr.MPKI() != 0 || ctr.KernelShare() != 0 {
		t.Fatal("empty counters should report zero rates")
	}
}

func TestExecuteDeterminism(t *testing.T) {
	s := independentALU(5000)
	a := execute(testCore(), append([]isa.Instr(nil), s...))
	b := execute(testCore(), append([]isa.Instr(nil), s...))
	if a.Cycles != b.Cycles || a.Counters != b.Counters {
		t.Fatal("identical cores and streams must produce identical results")
	}
}

func TestContextSwitchPollutesCaches(t *testing.T) {
	c := testCore()
	warm := make([]isa.Instr, 2000)
	for i := range warm {
		warm[i] = isa.Instr{Op: isa.MOVload, PC: 0x400000 + uint64(i%16)*4,
			Dst: isa.R3, Src1: isa.R10, Addr: 0x50000000 + (uint64(i)*64)%(8<<10), BranchID: -1}
	}
	execute(c, warm)
	res1 := execute(c, append([]isa.Instr(nil), warm...))
	c.ContextSwitch()
	res2 := execute(c, append([]isa.Instr(nil), warm...))
	if res2.Counters.L1dMiss <= res1.Counters.L1dMiss {
		t.Fatalf("context switch should add misses: %d vs %d",
			res2.Counters.L1dMiss, res1.Counters.L1dMiss)
	}
}

// testCore's L2 sits in both hierarchies; a context switch must still leave
// L1i, L1d and that shared L2 empty, and keep the L3.
func TestContextSwitchEmptiesPrivateCaches(t *testing.T) {
	c := testCore()
	const pc, addr = 0x400000, 0x50000000
	execute(c, []isa.Instr{{Op: isa.MOVload, PC: pc, Dst: isa.R3, Src1: isa.R10, Addr: addr, BranchID: -1}})
	i, d := c.cfg.ICache.Caches, c.cfg.DCache.Caches
	if !i[0].Contains(pc) || !d[0].Contains(addr) || !i[1].Contains(addr) {
		t.Fatal("warm-up did not fill L1i, L1d and L2")
	}
	c.ContextSwitch()
	for _, probe := range []struct {
		name string
		c    *cache.Cache
		addr uint64
	}{{"l1i", i[0], pc}, {"l1d", d[0], addr}, {"l2 (instr line)", i[1], pc}, {"l2 (data line)", d[1], addr}} {
		if probe.c.Contains(probe.addr) {
			t.Errorf("%s still holds %#x after a context switch", probe.name, probe.addr)
		}
	}
	if !i[2].Contains(pc) || !d[2].Contains(addr) {
		t.Error("context switch flushed the shared L3")
	}
}

func TestHaswellSlowerThanSkylake(t *testing.T) {
	mk := func(a Arch) *Core {
		l1i := cache.New(cache.Config{Name: "l1i", Size: 32 << 10, Assoc: 8, Latency: 4, Policy: cache.LRU})
		l1d := cache.New(cache.Config{Name: "l1d", Size: 32 << 10, Assoc: 8, Latency: 4, Policy: cache.LRU})
		return NewCore(Config{Arch: a, FreqGHz: 2,
			ICache: &cache.Hierarchy{Caches: [3]*cache.Cache{l1i, nil, nil}, MemLatency: 200},
			DCache: &cache.Hierarchy{Caches: [3]*cache.Cache{l1d, nil, nil}, MemLatency: 200}})
	}
	s := independentALU(20000)
	sky := execute(mk(Skylake), append([]isa.Instr(nil), s...))
	has := execute(mk(Haswell), append([]isa.Instr(nil), s...))
	if has.Counters.IPC() >= sky.Counters.IPC() {
		t.Fatalf("Haswell IPC %v should trail Skylake %v", has.Counters.IPC(), sky.Counters.IPC())
	}
}
