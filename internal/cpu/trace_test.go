package cpu

import (
	"testing"

	"ditto/internal/isa"
)

// mixedStream builds a stream exercising every decoded fact: ALU chains,
// loads/stores over a working set, pointer chases, shared lines, branches
// (taken and not), REP copies, kernel-mode instructions, and line-crossing
// PCs.
func mixedStream(n int, seed uint64) []isa.Instr {
	s := make([]isa.Instr, n)
	rng := seed | 1
	next := func() uint64 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return rng * 0x2545F4914F6CDD1D
	}
	pc := uint64(0x400000)
	for i := range s {
		r := next()
		pc += isa.InstrBytes
		if r&0x3F == 0 {
			pc += (r >> 8) % 4096 // occasional far jump: new fetch lines
		}
		in := isa.Instr{PC: pc, BranchID: -1,
			Dst: isa.Reg(r >> 8 & 7), Src1: isa.Reg(r >> 12 & 7), Src2: isa.Reg(r >> 16 & 7)}
		switch r % 10 {
		case 0, 1:
			in.Op = isa.MOVload
			in.Src1 = isa.R10
			in.Addr = 0x10000000 + (r>>20)%(4<<20)&^7
			in.Shared = r>>5&0xF == 0
		case 2:
			in.Op = isa.MOVstore
			in.Dst = isa.RegNone
			in.Addr = 0x10000000 + (r>>20)%(4<<20)&^7
		case 3:
			in.Op = isa.JCC
			in.BranchID = int32(i % 64)
			in.Taken = r>>32&3 != 0
			in.Dst, in.Src1, in.Src2 = isa.RegNone, isa.RegNone, isa.RegNone
		case 4:
			in.Op = isa.REPMOVSB
			in.RepCount = int32(64 + r%512)
			in.Addr = 0x20000000 + (r>>24)%(1<<20)&^7
			in.Dst, in.Src1, in.Src2 = isa.RegNone, isa.RegNone, isa.RegNone
		case 5:
			in.Op = isa.IMULrr
		case 6:
			in.Op = isa.ADDSDxx
			in.Dst = isa.X0 + isa.Reg(r>>8&7)
			in.Src1 = in.Dst
			in.Src2 = isa.X0 + isa.Reg(r>>12&7)
		default:
			in.Op = isa.ADDrr
		}
		if r>>40&7 == 0 {
			in.Kernel = true
		}
		s[i] = in
	}
	return s
}

// TestDecodeReuseMatchesFreshTrace proves that re-decoding a trace in place
// leaves nothing of the previous stream behind: a trace that first held a
// longer, different stream executes bit-identically to a fresh NewTrace of
// the new stream — same counters, same cycles, on warm and cold
// micro-architectural state. Per-thread payload-copy tails and the LLC
// stressor's refilled bursts rely on this.
func TestDecodeReuseMatchesFreshTrace(t *testing.T) {
	stream := mixedStream(20000, 0x9E3779B97F4A7C15)
	fresh := NewTrace(stream)
	reused := NewTrace(mixedStream(30000, 0xC0FFEE))
	reused.Decode(stream)

	a, b := testCore(), testCore()
	// Set a coherence rate so the shared-access RNG path is exercised; both
	// cores start from the same RNG seed, so draw sequences must align.
	a.SetCoherenceInvRate(0.3)
	b.SetCoherenceInvRate(0.3)
	for round := 0; round < 3; round++ {
		ra := a.ExecuteTrace(fresh)
		rb := b.ExecuteTrace(reused)
		if ra != rb {
			t.Fatalf("round %d: re-decoded trace != fresh trace\n  fresh:  %+v\n  reused: %+v",
				round, ra, rb)
		}
	}
}

// TestDecodeReusesStorage guards the static pass's buffer reuse: decoding a
// second stream of no greater length into the same trace must not allocate.
func TestDecodeReusesStorage(t *testing.T) {
	big := mixedStream(8192, 1)
	small := mixedStream(4096, 2)
	var tr Trace
	tr.Decode(big)
	allocs := testing.AllocsPerRun(100, func() {
		tr.Decode(small)
		tr.Decode(big)
	})
	if allocs != 0 {
		t.Fatalf("Decode into warm trace allocates %v per run, want 0", allocs)
	}
}

// TestExecuteTraceAllocationFree guards the dynamic pass: executing a
// pre-decoded trace must never allocate.
func TestExecuteTraceAllocationFree(t *testing.T) {
	stream := mixedStream(4096, 3)
	tr := NewTrace(stream)
	c := testCore()
	c.ExecuteTrace(tr) // warm caches and predictor
	allocs := testing.AllocsPerRun(50, func() { c.ExecuteTrace(tr) })
	if allocs != 0 {
		t.Fatalf("ExecuteTrace allocates %v per run, want 0", allocs)
	}
}
