package profile

import (
	"ditto/internal/cache"
	"ditto/internal/isa"
)

// valgrindState measures working-set behaviour exactly as §4.4.4/§4.4.5
// prescribe: simulate caches of every power-of-two size (8-way below 1MB,
// 16-way at and above) over the observed data-access trace and over the
// instruction line-fetch trace, then convert hit counts to per-working-set
// access counts via Eq. 1 and Eq. 2.
//
// The simulation runs off the observing goroutine. observe only filters the
// stream into a lineBatch; each full batch goes to one sweeper goroutine,
// which feeds it to the two WorkingSetSims and returns the buffer through
// free. The sweeper is the sims' only user until drain joins it, and the
// batches reach it in observation order, so every sim sees exactly the
// access sequence an inline call would have given it.
type valgrindState struct {
	dws *cache.WorkingSetSim
	iws *cache.WorkingSetSim

	cur  *lineBatch      // batch being filled by observe
	full chan *lineBatch // filled batches, in observation order; nil once drained
	free chan *lineBatch // swept batches, for reuse
	done chan struct{}   // closed when the sweeper has swept every batch

	lastPCLine uint64
	havePC     bool
	iFetches   uint64
	instrs     uint64
}

// sweepBuffers is how many lineBatches one profiler cycles through: one
// being filled, one being swept, one queued between them.
const sweepBuffers = 3

// lineBatch holds observed accesses not yet simulated: instruction-fetch
// and data byte addresses, each in observation order.
type lineBatch struct {
	instr, data [4096]uint64
	ni, nd      int
}

// newValgrindState builds the two sims and starts the sweeper.
func newValgrindState(maxData, maxInstr int) *valgrindState {
	v := &valgrindState{
		dws:  cache.NewWorkingSetSim(maxData),
		iws:  cache.NewWorkingSetSim(maxInstr),
		cur:  new(lineBatch),
		full: make(chan *lineBatch, sweepBuffers), // ditto:determinism-ok reviewed: sweeper queue, see valgrindState
		free: make(chan *lineBatch, sweepBuffers), // ditto:determinism-ok reviewed: buffer return path of the sweeper
		done: make(chan struct{}),                 // ditto:determinism-ok reviewed: sweeper join signal
	}
	for i := 1; i < sweepBuffers; i++ {
		v.free <- new(lineBatch) // ditto:determinism-ok reviewed: seeding the buffer pool before the sweeper starts
	}
	// ditto:determinism-ok reviewed: the working-set sweeper. It alone
	// touches dws/iws until drain joins it; it takes batches from one FIFO
	// channel fed by one producer, so each sim sees the observed order, and
	// the hit counts are read only after the join. Scheduling decides when
	// a batch is swept, never what it contributes.
	go func(full <-chan *lineBatch, free chan<- *lineBatch, done chan<- struct{}) {
		for b := range full { // ditto:determinism-ok reviewed: one consumer, FIFO order
			v.sweep(b)
			free <- b // ditto:determinism-ok reviewed: return the emptied buffer
		}
		close(done)
	}(v.full, v.free, v.done)
	return v
}

// sweep feeds a batch to the sims and empties it.
//
// ditto:noalloc
func (v *valgrindState) sweep(b *lineBatch) {
	for _, a := range b.instr[:b.ni] {
		v.iws.Access(a)
	}
	for _, a := range b.data[:b.nd] {
		v.dws.Access(a)
	}
	b.ni, b.nd = 0, 0
}

// handoff passes the full current batch to the sweeper and takes a free
// one. After drain there is no sweeper and the batch is swept inline, so
// late observations keep counting without a goroutine.
//
// ditto:noalloc
func (v *valgrindState) handoff() {
	if v.full == nil {
		v.sweep(v.cur)
		return
	}
	v.full <- v.cur  // ditto:determinism-ok reviewed: FIFO handoff to the sweeper, see valgrindState
	v.cur = <-v.free // ditto:determinism-ok reviewed: buffer reuse; any free batch is empty
}

// drain joins the sweeper (once) and sweeps what observe has gathered
// since, after which dws and iws are safe to read. It may be called again:
// each call sweeps the accesses observed since the last one.
func (v *valgrindState) drain() {
	if v.full != nil {
		close(v.full)
		<-v.done // ditto:determinism-ok reviewed: join the sweeper before reading its sims
		v.full = nil
	}
	v.sweep(v.cur)
}

// fetch records one instruction-fetch address.
//
// ditto:noalloc
func (v *valgrindState) fetch(pc uint64) {
	b := v.cur
	b.instr[b.ni] = pc
	if b.ni++; b.ni == len(b.instr) {
		v.handoff()
	}
}

// access records one data address.
//
// ditto:noalloc
func (v *valgrindState) access(addr uint64) {
	b := v.cur
	b.data[b.nd] = addr
	if b.nd++; b.nd == len(b.data) {
		v.handoff()
	}
}

// observe feeds one user-level instruction stream.
//
// ditto:noalloc
func (v *valgrindState) observe(stream []isa.Instr) {
	for i := range stream {
		in := &stream[i]
		v.instrs++
		line := in.PC / isa.LineBytes
		if !v.havePC || line != v.lastPCLine {
			v.fetch(in.PC)
			v.iFetches++
			v.lastPCLine = line
			v.havePC = true
		}
		f := &isa.Table[in.Op]
		if (f.Load || f.Store) && !f.Rep {
			v.access(in.Addr)
		} else if f.Rep {
			// A REP op sweeps its whole range, one line at a time.
			n := int(in.RepCount)
			if n < 1 {
				n = 1
			}
			for l := 0; l < (n+isa.LineBytes-1)/isa.LineBytes; l++ {
				v.access(in.Addr + uint64(l*isa.LineBytes))
			}
		}
	}
}

// deriveDWS applies Eq. 1: A_d(64) = H_d(64), A_d(2^i) = H_d(2^i) −
// H_d(2^(i−1)); accesses that miss even the largest simulated cache are
// attributed to the largest working set.
func (v *valgrindState) deriveDWS() []WSBin {
	sizes := v.dws.Sizes()
	hits := v.dws.Hits()
	total := v.dws.Total()
	if total == 0 {
		return nil
	}
	bins := make([]WSBin, 0, len(sizes))
	var prev uint64
	for i, size := range sizes {
		a := hits[i] - prev
		prev = hits[i]
		bins = append(bins, WSBin{Bytes: size, Count: float64(a)})
	}
	// Cold / beyond-capacity accesses land in the largest working set.
	if miss := total - hits[len(hits)-1]; miss > 0 {
		bins[len(bins)-1].Count += float64(miss)
	}
	return trimZeroBins(bins)
}

// deriveIWS applies Eq. 2: E_i(2^j) = 16·[H_i(2^j) − H_i(2^(j−1))] for
// working sets above one line, with the 64-byte bucket absorbing the
// remainder so that ΣE equals the total dynamic instruction count.
func (v *valgrindState) deriveIWS() []WSBin {
	sizes := v.iws.Sizes()
	hits := v.iws.Hits()
	if v.instrs == 0 {
		return nil
	}
	bins := make([]WSBin, len(sizes))
	var sumAbove float64
	for j := len(sizes) - 1; j >= 1; j-- {
		e := float64(isa.InstrsPerLine) * float64(hits[j]-hits[j-1])
		bins[j] = WSBin{Bytes: sizes[j], Count: e}
		sumAbove += e
	}
	// Misses beyond the largest simulated i-cache: attribute to largest WS.
	if miss := v.iFetches - hits[len(hits)-1]; miss > 0 {
		e := float64(isa.InstrsPerLine) * float64(miss)
		bins[len(bins)-1].Count += e
		sumAbove += e
	}
	e64 := float64(v.instrs) - sumAbove
	if e64 < 0 {
		// Short fetch runs (jumpy code executes fewer than 16 instructions
		// per fetched line) over-attribute executions; renormalize so that
		// ΣE_i equals the dynamic instruction count Eq. 2 conserves.
		scale := float64(v.instrs) / sumAbove
		for j := range bins {
			bins[j].Count *= scale
		}
		e64 = 0
	}
	bins[0] = WSBin{Bytes: sizes[0], Count: e64}
	return trimZeroBins(bins)
}

// trimZeroBins drops empty buckets.
func trimZeroBins(bins []WSBin) []WSBin {
	out := bins[:0]
	for _, b := range bins {
		if b.Count > 0 {
			out = append(out, b)
		}
	}
	return out
}
