package cpu

import (
	"math"

	"ditto/internal/cache"
	"ditto/internal/isa"
)

// This file implements the decoded-trace representation: a one-time static
// pass over an instruction stream that precomputes everything the
// per-instruction loop would otherwise re-derive on every run — iform uops,
// ports and latencies, fetch-line-change boundaries, branch/memory markers —
// into a dense struct-of-arrays. ExecuteTrace then touches only dynamic state
// (caches, predictor, ports, ROB, registers), which is what makes replaying
// a cached stream cheap: the stream is decoded once when it enters a cache
// (kernel kstream variants, app request-stream variants) and executed
// thousands of times.

// traceFlag packs the per-instruction static markers into one byte.
type traceFlag uint8

const (
	tfKernel traceFlag = 1 << iota
	tfBranch
	tfTaken
	tfLoad
	tfStore
	tfRep
	tfShared
	tfLine // PC sits on a different fetch line than the previous instruction
)

// TraceClass labels what kind of cached stream a Trace holds, which is what
// sampled steady-state execution keys eligibility on: only pregenerated
// rotating variants (application request bodies, kernel syscall streams) are
// statistically exchangeable enough to model from a measured distribution.
// Ad-hoc traces keep ClassNone and always execute.
type TraceClass uint8

const (
	ClassNone   TraceClass = iota // ad-hoc stream: never sampled
	ClassBody                     // pregenerated application request-body variant
	ClassKernel                   // pregenerated kernel syscall-stream variant
)

// Trace is a decoded instruction stream. The Stream field aliases the
// decoded source so observers (the SDE analog) still see plain isa.Instr
// values; the parallel arrays are what the execution loop reads. A Trace
// must not be mutated while any core may still execute it — the same
// contract cached []isa.Instr streams already obey.
type Trace struct {
	Stream []isa.Instr

	// Class marks sampling eligibility; Decode leaves it untouched so the
	// owner of a cached variant sets it once at pregeneration time.
	Class TraceClass
	// Group links the rotating variants of one pregenerated set (the 8
	// bodies of a (body, kind), the 8 kstreams of a syscall op) to a shared
	// canonical trace, so the steady-state sampler pools their statistics:
	// the variants are draws from the same generator, and the pooled
	// empirical distribution is exactly the per-kind latency distribution a
	// modeled request should reproduce. Nil means the trace samples alone.
	Group *Trace

	flags   []traceFlag
	uop8    []uint8   // fused-domain uops
	cumU    []uint32  // inclusive prefix sum of uop8, for batched dispatch
	execLat []float64 // iform latency plus any REP per-element cost
	psel    []uint32  // four packed port candidates (portPack[iform mask])
	dst     []isa.Reg // destination, with RegNone remapped to regSink
	src1    []isa.Reg
	src2    []isa.Reg
	pc      []uint64
	addr    []uint64
	rep     []int32

	instrs, kernelInstrs, uops uint64
}

// NewTrace decodes stream into a fresh Trace.
func NewTrace(stream []isa.Instr) *Trace {
	tr := &Trace{}
	tr.Decode(stream)
	return tr
}

// Len reports the number of decoded instructions.
func (tr *Trace) Len() int { return len(tr.flags) }

// grow sizes every parallel array to n, reusing capacity.
func (tr *Trace) grow(n int) {
	if cap(tr.flags) < n {
		tr.flags = make([]traceFlag, n)
		tr.uop8 = make([]uint8, n)
		tr.cumU = make([]uint32, n)
		tr.execLat = make([]float64, n)
		tr.psel = make([]uint32, n)
		tr.dst = make([]isa.Reg, n)
		tr.src1 = make([]isa.Reg, n)
		tr.src2 = make([]isa.Reg, n)
		tr.pc = make([]uint64, n)
		tr.addr = make([]uint64, n)
		tr.rep = make([]int32, n)
		return
	}
	tr.flags = tr.flags[:n]
	tr.uop8 = tr.uop8[:n]
	tr.cumU = tr.cumU[:n]
	tr.execLat = tr.execLat[:n]
	tr.psel = tr.psel[:n]
	tr.dst = tr.dst[:n]
	tr.src1 = tr.src1[:n]
	tr.src2 = tr.src2[:n]
	tr.pc = tr.pc[:n]
	tr.addr = tr.addr[:n]
	tr.rep = tr.rep[:n]
}

// Decode runs the static pass over stream, reusing the trace's storage. The
// trace aliases stream, so the stream must stay unmodified for as long as
// the trace is in use.
// ditto:noalloc
func (tr *Trace) Decode(stream []isa.Instr) {
	tr.Stream = stream
	n := len(stream)
	tr.grow(n)
	tr.instrs = uint64(n)
	tr.kernelInstrs = 0
	tr.uops = 0
	prevLine := ^uint64(0)
	for i := range stream {
		in := &stream[i]
		f := &isa.Table[in.Op]

		var fl traceFlag
		if in.Kernel {
			fl |= tfKernel
			tr.kernelInstrs++
		}
		if f.Branch {
			fl |= tfBranch
		}
		if in.Taken {
			fl |= tfTaken
		}
		if f.Load {
			fl |= tfLoad
		}
		if f.Store {
			fl |= tfStore
		}
		if f.Rep {
			fl |= tfRep
		}
		if in.Shared {
			fl |= tfShared
		}
		line := in.PC / isa.LineBytes
		if line != prevLine {
			fl |= tfLine
			prevLine = line
		}
		tr.flags[i] = fl

		tr.uops += uint64(f.Uops)
		tr.uop8[i] = uint8(f.Uops)
		tr.cumU[i] = uint32(tr.uops)
		lat := float64(f.Latency)
		if f.Rep && in.RepCount > 1 {
			lat += float64(f.RepUnit) * float64(in.RepCount) / 8
		}
		tr.execLat[i] = lat
		tr.psel[i] = portPack[f.Ports]
		d := in.Dst
		if d == isa.RegNone {
			d = regSink
		}
		tr.dst[i] = d
		tr.src1[i] = in.Src1
		tr.src2[i] = in.Src2
		tr.pc[i] = in.PC
		tr.addr[i] = in.Addr
		tr.rep[i] = in.RepCount
	}
}

// regSink is the scoreboard slot that absorbs writes from instructions with
// no destination register: Decode remaps dst == RegNone to it, so the
// execution loop can write regReady[dst] unconditionally. Reads never see
// it — source operands keep RegNone (0xFF), whose slot is never written and
// therefore always holds 0, a no-op under max with a non-negative clock.
const regSink isa.Reg = 0xFE

// ExecuteTrace runs a decoded stream to completion — the dynamic pass, and
// the core's one entry point — and returns consumed cycles plus counter
// deltas. The timeline is local to the burst; cache and predictor state
// persist across calls. A Trace re-decoded in place runs result-identically
// to a fresh NewTrace of the same stream: the same counters, the same cycle
// count, the same RNG draw sequence.
//
// The loop body works on locals: the trace's parallel arrays are re-sliced
// to a common length so bounds checks vanish and the register/port
// scoreboards live in stack arrays. The dispatch clock is not accumulated
// one add at a time — that would serialize every iteration behind a
// float-add dependency chain. Instead it is derived from the decode-time
// uop prefix sum: dispatch = base + Δuops·(1/width), where base only
// changes at stall events (frontend miss, mispredict, ROB-full), so
// consecutive iterations compute their clocks independently. For
// power-of-two effective widths (Skylake's 4) every quantity is an exact
// multiple of a small power of two, making this bit-identical to the
// serial sum.
// ditto:noalloc
func (c *Core) ExecuteTrace(tr *Trace) Result {
	var ctr Counters
	width := float64(c.cfg.Arch.IssueWidth) * c.cfg.SMTFactor
	if width < 1 {
		width = 1
	}
	invW := 1 / width
	// The register and port scoreboards hold Float64bits of their ready
	// times. Every time in the model is non-negative, and for non-negative
	// IEEE doubles the bit pattern orders exactly like the value — so the
	// max/min scans compare integers, which the compiler lowers to
	// conditional moves instead of poorly-predicted float branches.
	var regReady [256]uint64
	var portFree [8]uint64
	robRing := c.robRing
	for i := range robRing {
		robRing[i] = 0
	}
	robPos := 0

	ctr.Instrs = tr.instrs
	ctr.KernelInstrs = tr.kernelInstrs
	ctr.Uops = tr.uops

	dispatch := 0.0
	base := 0.0
	maxComplete := uint64(0) // Float64bits of the latest completion time
	l1iLat, l1dLat := c.l1Lat(c.cfg.ICache), c.l1Lat(c.cfg.DCache)
	icache := c.cfg.ICache
	pred := c.pred
	mispredPen := float64(c.cfg.Arch.MispredictPenalty)

	flags := tr.flags
	n := len(flags)
	cumU := tr.cumU[:n]
	execLat := tr.execLat[:n]
	psel := tr.psel[:n]
	dst := tr.dst[:n]
	src1 := tr.src1[:n]
	src2 := tr.src2[:n]
	pcs := tr.pc[:n]
	addrs := tr.addr[:n]
	reps := tr.rep[:n]

	for i := 0; i < n; i++ {
		fl := flags[i]
		dispatch = base + float64(cumU[i])*invW

		// Frontend: fetch the instruction's line when it changes. Within
		// the trace, line changes are the precomputed tfLine positions; the
		// first instruction must also check against the fetch state left by
		// the previous burst.
		if fl&tfLine != 0 || i == 0 {
			line := pcs[i] / isa.LineBytes
			if !c.haveFetch || line != c.lastFetch {
				c.lastFetch = line
				c.haveFetch = true
				if icache != nil {
					res := icache.Access(pcs[i])
					c.countAccess(&ctr, res, true)
					if res.Served != cache.L1 {
						stall := float64(res.Latency - l1iLat)
						base += stall
						dispatch += stall
						ctr.Frontend += stall
					}
				}
			}
		}

		// Branch prediction.
		if fl&tfBranch != 0 {
			ctr.Branches++
			if !pred.Access(pcs[i], fl&tfTaken != 0) {
				ctr.Mispred++
				base += mispredPen
				dispatch += mispredPen
				ctr.BadSpec += mispredPen
			}
		}

		// ROB: cannot dispatch past the window.
		if old := robRing[robPos]; old > dispatch {
			base += old - dispatch
			dispatch = old
		}

		// Register dataflow. RegNone sources read slot 0xFF, which is never
		// written (Decode diverts destinations to regSink) and stays 0.
		rb := math.Float64bits(dispatch)
		if r := regReady[src1[i]]; r > rb {
			rb = r
		}
		if r := regReady[src2[i]]; r > rb {
			rb = r
		}

		// Port selection: least-loaded allowed port, first wins ties. The
		// four candidates were packed into one word at decode time; padded
		// duplicate slots lose all strict-< comparisons. (&7 states the
		// invariant that candidates are port indices, letting the compiler
		// drop the portFree bounds checks.)
		q := psel[i]
		best := q & 7
		bf := portFree[best]
		if p := (q >> 8) & 7; portFree[p] < bf {
			best, bf = p, portFree[p]
		}
		if p := (q >> 16) & 7; portFree[p] < bf {
			best, bf = p, portFree[p]
		}
		if p := (q >> 24) & 7; portFree[p] < bf {
			best, bf = p, portFree[p]
		}
		if bf > rb {
			rb = bf
		}
		issue := math.Float64frombits(rb)
		portFree[best] = math.Float64bits(issue + 1)

		// Memory.
		memExtra := 0.0
		if fl&(tfLoad|tfStore) != 0 {
			memExtra = c.memAccessT(&ctr, addrs[i], reps[i], fl, l1dLat)
		}

		complete := issue + execLat[i]
		if fl&tfLoad != 0 {
			complete += memExtra
		}
		cb := math.Float64bits(complete)
		regReady[dst[i]] = cb // regSink absorbs no-destination writes
		robRing[robPos] = complete
		robPos++
		if robPos == len(robRing) {
			robPos = 0
		}
		if cb > maxComplete {
			maxComplete = cb
		}
	}

	cycles := dispatch
	if mc := math.Float64frombits(maxComplete); mc > cycles {
		cycles = mc
	}
	ctr.Cycles = cycles
	ctr.Retiring = float64(ctr.Uops) / width
	back := cycles - ctr.Retiring - ctr.Frontend - ctr.BadSpec
	if back < 0 {
		back = 0
	}
	ctr.Backend = back
	return Result{Cycles: cycles, Counters: ctr}
}

// memAccessT is memAccess on decoded per-instruction facts. It preserves
// the original's accounting and RNG draw order exactly.
func (c *Core) memAccessT(ctr *Counters, addr uint64, repCount int32, fl traceFlag, l1dLat int) float64 {
	if c.cfg.DCache == nil {
		return 0
	}
	if fl&tfShared != 0 && c.cfg.CoherenceInvRate > 0 && c.next01() < c.cfg.CoherenceInvRate {
		c.cfg.DCache.Invalidate(addr)
	}
	load := fl&tfLoad != 0
	store := fl&tfStore != 0
	if load {
		ctr.LoadBytes += 8
	}
	if store {
		ctr.StoreBytes += 8
	}
	if fl&tfRep == 0 {
		res := c.cfg.DCache.Access(addr)
		c.countAccess(ctr, res, false)
		extra := float64(res.Latency - l1dLat)
		if extra < 0 {
			extra = 0
		}
		if store && !load {
			return 0 // store buffer hides store latency
		}
		return extra
	}
	// REP string op: touch every line in [addr, addr+repCount).
	n := int(repCount)
	if n < 1 {
		n = 1
	}
	if load {
		ctr.LoadBytes += uint64(n)
	}
	if store {
		ctr.StoreBytes += uint64(n)
	}
	lines := (n + isa.LineBytes - 1) / isa.LineBytes
	var exposed float64
	for l := 0; l < lines; l++ {
		res := c.cfg.DCache.Access(addr + uint64(l*isa.LineBytes))
		c.countAccess(ctr, res, false)
		if extra := float64(res.Latency - l1dLat); extra > 0 {
			exposed += extra
		}
	}
	const streamMLP = 4 // hardware stream overlap for bulk copies
	return exposed / streamMLP
}
