// Package interfere implements the co-located stressor workloads of the
// paper's interference study (§6.5): cache-hammering processes standing in
// for stress-ng and iBench, and a bandwidth hog standing in for iperf3.
// Hyperthread-sibling stressors (HT, L1d, L2) are modeled by the platform's
// SMT and private-cache-scale knobs, since the simulator has one hardware
// context per core; LLC and network stressors run as real processes.
package interfere

import (
	"fmt"

	"ditto/internal/cpu"
	"ditto/internal/isa"
	"ditto/internal/kernel"
	"ditto/internal/platform"
	"ditto/internal/sim"
)

// stressorBurst is how many instructions each stressor thread runs between
// scheduler yields.
const stressorBurst = 4096

// fillLLCBurst rewrites stream in place with a streaming-load sweep starting
// at cursor (bytes into the working set) and returns the advanced cursor.
// It touches no storage beyond the given slice, keeping the stressor's burst
// loop allocation-free.
// ditto:noalloc
func fillLLCBurst(stream []isa.Instr, base, cursor uint64, wsBytes int) uint64 {
	for i := range stream {
		stream[i] = isa.Instr{Op: isa.MOVload,
			PC:  0x700000 + uint64(i%16)*4,
			Dst: isa.Reg(i % 8), Src1: isa.R10,
			Addr: base + cursor, BranchID: -1}
		cursor = (cursor + isa.LineBytes) % uint64(wsBytes)
	}
	return cursor
}

// fillCPUBurst rewrites stream in place with a pure-ALU spin loop.
// ditto:noalloc
func fillCPUBurst(stream []isa.Instr) {
	for i := range stream {
		stream[i] = isa.Instr{Op: isa.ADDrr, PC: 0x710000 + uint64(i%16)*4,
			Dst: isa.Reg(i % 8), Src1: isa.Reg(i % 8), Src2: isa.Reg((i + 1) % 8),
			BranchID: -1}
	}
}

// StartLLCStressor launches threads that continuously stream loads over a
// working set sized to wsBytes (typically the LLC capacity), evicting the
// victim's shared-cache lines — the iBench LLC benchmark.
func StartLLCStressor(m *platform.Machine, threads, wsBytes int) *kernel.Proc {
	p := m.Kernel.NewProc("llc-stressor")
	for th := 0; th < threads; th++ {
		th := th
		p.Spawn(fmt.Sprintf("hammer-%d", th), func(t *kernel.Thread) {
			base := p.MemBase + uint64(th)<<34
			stream := make([]isa.Instr, stressorBurst)
			var tr cpu.Trace // re-decoded in place after every refill
			cursor := uint64(0)
			for {
				cursor = fillLLCBurst(stream, base, cursor, wsBytes)
				tr.Decode(stream)
				t.RunTrace(&tr)
				t.Yield() // stay preemptible
			}
		})
	}
	return p
}

// StartNetStressor launches an iperf3-style flow from one machine to a sink
// on another, competing for the sender's NIC bandwidth. msgBytes per send,
// back to back.
func StartNetStressor(from, to *platform.Machine, port, msgBytes int) *kernel.Proc {
	sinkProc := to.Kernel.NewProc("iperf-sink")
	sinkProc.Spawn("sink", func(t *kernel.Thread) {
		l := t.Listen(port)
		conn := t.Accept(l)
		for {
			t.Recv(conn)
		}
	})
	p := from.Kernel.NewProc("iperf-client")
	p.Spawn("sender", func(t *kernel.Thread) {
		conn := t.Connect(to.Kernel, port)
		for {
			t.Send(conn, msgBytes, nil)
			// Pace slightly so the event queue stays bounded while still
			// saturating the NIC.
			t.Sleep(sim.Time(float64(msgBytes*8) / (from.Spec.NICGbps * 1e9) * float64(sim.Second)))
		}
	})
	return p
}

// StartCPUStressor launches compute-bound threads (stress-ng --cpu):
// pure-ALU spinners that occupy run-queue slots.
func StartCPUStressor(m *platform.Machine, threads int) *kernel.Proc {
	p := m.Kernel.NewProc("cpu-stressor")
	for th := 0; th < threads; th++ {
		p.Spawn(fmt.Sprintf("spin-%d", th), func(t *kernel.Thread) {
			// The spin stream never changes: decode it once and replay the
			// trace, skipping the per-burst decode pass entirely.
			stream := make([]isa.Instr, stressorBurst)
			fillCPUBurst(stream)
			tr := cpu.NewTrace(stream)
			for {
				t.RunTrace(tr)
				t.Yield()
			}
		})
	}
	return p
}
