package interfere

import (
	"testing"

	"ditto/internal/cpu"
	"ditto/internal/isa"
	"ditto/internal/kernel"
	"ditto/internal/platform"
	"ditto/internal/sim"
)

func TestLLCStressorEvictsVictimLines(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps the full LLC; skipped in -short")
	}
	run := func(withStressor bool) float64 {
		eng := sim.NewEngine()
		cl := platform.NewCluster(100 * sim.Microsecond)
		m := platform.NewMachine(eng, "m", platform.C()) // 8MB LLC, 4 cores
		cl.Add(m)
		if withStressor {
			StartLLCStressor(m, 2, platform.C().LLCKB<<10)
		}
		victim := m.Kernel.NewProc("victim")
		victim.Spawn("v", func(th *kernel.Thread) {
			// Random accesses over a 2MB working set: too big for the
			// private L1/L2 and immune to the next-line prefetcher, so every
			// access exercises the LLC. Alone, the set fits the 8MB LLC and
			// hits once warm; under the stressor its lines are evicted.
			const ws = 2 << 20
			stream := make([]isa.Instr, 4096)
			var tr cpu.Trace
			state := uint64(0xBEEF)
			for round := 0; round < 24; round++ {
				for i := range stream {
					state ^= state >> 12
					state ^= state << 25
					state ^= state >> 27
					stream[i] = isa.Instr{Op: isa.MOVload,
						PC: 0x400000 + uint64(i%16)*4, Dst: isa.Reg(i % 8),
						Src1:     isa.R10,
						Addr:     victim.MemBase + state*0x2545F4914F6CDD1D%ws&^63,
						BranchID: -1}
				}
				tr.Decode(stream)
				th.RunTrace(&tr)
				th.Yield()
			}
		})
		eng.RunFor(15 * sim.Millisecond)
		m.Kernel.Stop()
		eng.Run()
		return victim.Counters.L3MissRate()
	}
	alone := run(false)
	contended := run(true)
	if contended <= alone {
		t.Fatalf("LLC stressor should raise victim LLC misses: alone=%v contended=%v",
			alone, contended)
	}
}

func TestNetStressorDelaysVictimTraffic(t *testing.T) {
	eng := sim.NewEngine()
	cl := platform.NewCluster(100 * sim.Microsecond)
	a := platform.NewMachine(eng, "a", platform.C()) // 1Gbe NIC
	b := platform.NewMachine(eng, "b", platform.C())
	cl.Add(a)
	cl.Add(b)
	StartNetStressor(a, b, 5201, 1<<20)
	eng.RunFor(20 * sim.Millisecond)
	if a.NIC.TxBytes == 0 {
		t.Fatal("stressor sent nothing")
	}
	if a.NIC.QueueDelay() == 0 {
		t.Fatal("1Gbe NIC should be backlogged by the hog")
	}
	a.Kernel.Stop()
	b.Kernel.Stop()
	eng.Run()
}

// TestBurstFillAllocationFree guards the stressor burst loops: refilling a
// burst in place must not touch the allocator.
func TestBurstFillAllocationFree(t *testing.T) {
	stream := make([]isa.Instr, stressorBurst)
	cursor := uint64(0)
	allocs := testing.AllocsPerRun(50, func() {
		cursor = fillLLCBurst(stream, 1<<32, cursor, 8<<20)
	})
	if allocs != 0 {
		t.Fatalf("fillLLCBurst allocated %.1f allocs/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		fillCPUBurst(stream)
	})
	if allocs != 0 {
		t.Fatalf("fillCPUBurst allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestCPUStressorOccupiesCores(t *testing.T) {
	eng := sim.NewEngine()
	cl := platform.NewCluster(100 * sim.Microsecond)
	m := platform.NewMachine(eng, "m", platform.C())
	cl.Add(m)
	p := StartCPUStressor(m, 2)
	eng.RunFor(2 * sim.Millisecond)
	if p.Counters.Instrs == 0 {
		t.Fatal("CPU stressor executed nothing")
	}
	m.Kernel.Stop()
	eng.Run()
}
