package cpu

import (
	"testing"

	"ditto/internal/isa"
)

// BenchmarkExecuteALU measures simulator throughput on a pure ALU stream —
// the upper bound on simulation speed. Each op decodes the stream into a
// reused trace and executes it, the path of a stream that is not cached.
func BenchmarkExecuteALU(b *testing.B) {
	c := testCore()
	stream := independentALU(4096)
	var tr Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Decode(stream)
		c.ExecuteTrace(&tr)
	}
	b.ReportMetric(float64(len(stream)), "instrs/op")
}

// BenchmarkExecuteTraceDecoded measures the dynamic pass alone on a
// pre-decoded mixed trace — the steady-state hot path once request streams
// are cached. Allocations are reported; the pass must stay at zero.
func BenchmarkExecuteTraceDecoded(b *testing.B) {
	c := testCore()
	tr := NewTrace(mixedStream(4096, 7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ExecuteTrace(tr)
	}
	b.ReportMetric(float64(tr.Len()), "instrs/op")
}

// BenchmarkDecode measures the one-time static pass that turns a raw stream
// into a dense decoded trace (storage reused across iterations).
func BenchmarkDecode(b *testing.B) {
	stream := mixedStream(4096, 7)
	var tr Trace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Decode(stream)
	}
	b.ReportMetric(float64(len(stream)), "instrs/op")
}

// BenchmarkExecuteMemHeavy measures throughput with cache-hierarchy walks
// on every third instruction — the realistic workload shape. Like
// BenchmarkExecuteALU, each op decodes and then executes.
func BenchmarkExecuteMemHeavy(b *testing.B) {
	c := testCore()
	stream := make([]isa.Instr, 4096)
	for i := range stream {
		if i%3 == 0 {
			stream[i] = isa.Instr{Op: isa.MOVload, PC: 0x400000 + uint64(i%64)*4,
				Dst: isa.Reg(i % 8), Src1: isa.R10,
				Addr: 0x10000000 + uint64(i*64)%(8<<20), BranchID: -1}
		} else {
			stream[i] = isa.Instr{Op: isa.ADDrr, PC: 0x400000 + uint64(i%64)*4,
				Dst: isa.Reg(i % 8), Src1: isa.Reg(i % 8), Src2: isa.Reg((i + 1) % 8),
				BranchID: -1}
		}
	}
	var tr Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Decode(stream)
		c.ExecuteTrace(&tr)
	}
	b.ReportMetric(float64(len(stream)), "instrs/op")
}
