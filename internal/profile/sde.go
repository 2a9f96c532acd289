package profile

import (
	"sort"

	"ditto/internal/isa"
	"ditto/internal/stats"
)

// sdeState accumulates per-instruction observations from user-level
// streams: dynamic iform counts, per-static-branch direction statistics,
// register dependency distances, access-pattern regularity, pointer-chase
// and shared-access fractions (§4.4.2–4.4.6).
type sdeState struct {
	instrs   uint64
	opCounts [isa.NumOps]uint64

	branches map[int32]*brStat

	lastWrite [isa.NumRegs]uint64
	lastRead  [isa.NumRegs]uint64
	rawH      [DepBins]uint64
	warH      [DepBins]uint64
	wawH      [DepBins]uint64

	memAcc      uint64
	sharedAcc   uint64
	stores      uint64
	loads       uint64
	ptrLoads    uint64
	regularAcc  uint64
	strideState map[uint64]uint64 // static PC -> last address

	repCount uint64
	repBytes uint64
}

type brStat struct {
	taken, total, trans uint64
	last                bool
	seen                bool
}

func newSDEState() *sdeState {
	return &sdeState{
		branches:    map[int32]*brStat{},
		strideState: map[uint64]uint64{},
	}
}

// observe processes one user-level instruction stream.
func (s *sdeState) observe(stream []isa.Instr) {
	for i := range stream {
		in := &stream[i]
		f := &isa.Table[in.Op]
		idx := s.instrs
		s.instrs++
		s.opCounts[in.Op]++

		if f.Branch {
			b := s.branches[in.BranchID]
			if b == nil {
				b = &brStat{}
				s.branches[in.BranchID] = b
			}
			b.total++
			if in.Taken {
				b.taken++
			}
			if b.seen && in.Taken != b.last {
				b.trans++
			}
			b.last = in.Taken
			b.seen = true
		}

		// Register dependency distances.
		if in.Src1 != isa.RegNone {
			s.readReg(in.Src1, idx)
		}
		if in.Src2 != isa.RegNone {
			s.readReg(in.Src2, idx)
		}
		if in.Dst != isa.RegNone {
			if lw := s.lastWrite[in.Dst]; lw > 0 {
				s.wawH[DepBinOf(idx-lw)]++
			}
			if lr := s.lastRead[in.Dst]; lr > 0 {
				s.warH[DepBinOf(idx-lr)]++
			}
			s.lastWrite[in.Dst] = idx
		}

		if f.Load || f.Store {
			s.memAcc++
			if in.Shared {
				s.sharedAcc++
			}
			if last, ok := s.strideState[in.PC]; ok && in.Addr == last+isa.LineBytes {
				s.regularAcc++
			}
			s.strideState[in.PC] = in.Addr
		}
		if f.Load {
			s.loads++
			if in.Op == isa.MOVptr {
				s.ptrLoads++
			}
		}
		if f.Store && !f.Load {
			s.stores++
		}
		if f.Rep {
			s.repCount++
			s.repBytes += uint64(in.RepCount)
		}
	}
}

func (s *sdeState) readReg(r isa.Reg, idx uint64) {
	if lw := s.lastWrite[r]; lw > 0 {
		s.rawH[DepBinOf(idx-lw)]++
	}
	s.lastRead[r] = idx
}

// mix reduces the dynamic opcode counts to instruction-mix clusters using
// hierarchical clustering over iform features (§4.4.2), returning each
// cluster's share with its most-executed member as representative.
func (s *sdeState) mix() []MixEntry {
	clusters := ClusterIForms(0.5)
	var out []MixEntry
	for _, cl := range clusters {
		var total, best uint64
		rep := cl[0]
		for _, op := range cl {
			c := s.opCounts[op]
			total += c
			if c > best {
				best = c
				rep = op
			}
		}
		if total == 0 {
			continue
		}
		out = append(out, MixEntry{Op: rep, Share: float64(total) / float64(s.instrs)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Share > out[j].Share })
	return out
}

// branchBins quantizes per-branch taken and transition rates into the joint
// log-scale distribution, weighted by execution count.
func (s *sdeState) branchBins() ([]BranchBin, float64, int) {
	weights := map[[2]int]float64{}
	var branchExecs uint64
	// ditto:determinism-ok reviewed: integer sums, and float sums of
	// integer-valued counts far below 2^53, which are exact in any order.
	for _, b := range s.branches {
		if b.total == 0 {
			continue
		}
		branchExecs += b.total
		takenRate := float64(b.taken) / float64(b.total)
		if takenRate > 0.5 {
			// Symmetric treatment: a mostly-taken branch is as predictable
			// as a mostly-not-taken one; clone its bias magnitude.
			takenRate = 1 - takenRate
		}
		transRate := float64(b.trans) / float64(b.total)
		m := stats.QuantizeRateLog2(takenRate)
		n := stats.QuantizeRateLog2(transRate)
		weights[[2]int{m, n}] += float64(b.total)
	}
	var bins []BranchBin
	// ditto:determinism-ok reviewed: bins are collected, then sorted below.
	for k, w := range weights {
		bins = append(bins, BranchBin{M: k[0], N: k[1], Weight: w / float64(branchExecs)})
	}
	sort.Slice(bins, func(i, j int) bool {
		if bins[i].M != bins[j].M {
			return bins[i].M < bins[j].M
		}
		return bins[i].N < bins[j].N
	})
	share := 0.0
	if s.instrs > 0 {
		share = float64(branchExecs) / float64(s.instrs)
	}
	return bins, share, len(s.branches)
}

func normalizeDep(h [DepBins]uint64) DepHist {
	var total uint64
	for _, v := range h {
		total += v
	}
	var out DepHist
	if total == 0 {
		return out
	}
	for i, v := range h {
		out.Bins[i] = float64(v) / float64(total)
	}
	return out
}
