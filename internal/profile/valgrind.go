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
// The simulation runs off the observing goroutine, on two sweepers in a
// pipeline. observe only filters the stream into a lineBatch; each full
// batch goes to sweeper A, which runs both sims' whole 1-set stacks and
// splits what they leave by line parity (cache.WorkingSetSim.Split). A
// hands the odd halves to sweeper B in a second batch, sweeps the even
// halves itself and returns the batch through free; B sweeps the odd
// halves and returns its batch through oddFree. Nothing joins the two per
// batch. Each channel is a FIFO with one producer and one consumer, so
// every stack sees its lines in observation order, and each half's stacks
// have exactly one user: A owns the whole stacks and the even halves, B
// the odd halves, until drain joins both. Scheduling decides when a batch
// is swept, never what it contributes.
type valgrindState struct {
	dws *cache.WorkingSetSim
	iws *cache.WorkingSetSim

	cur     *lineBatch      // batch being filled by observe
	full    chan *lineBatch // filled batches to A, in observation order; nil once drained
	free    chan *lineBatch // batches A has swept, for reuse
	odds    chan *lineBatch // odd halves from A to B, in observation order
	oddFree chan *lineBatch // odd-half batches B has swept, for reuse
	doneA   chan struct{}   // closed when A has swept every batch and closed odds
	doneB   chan struct{}   // closed when B has swept every odd half
	spare   *lineBatch      // odd halves of batches swept inline after drain

	lastPCLine uint64
	havePC     bool
	iFetches   uint64
	instrs     uint64
}

// sweepBuffers is how many lineBatches each side of the pipeline cycles
// through: one being filled, one being swept, one queued between them.
const sweepBuffers = 3

// lineBatch holds observed accesses not yet simulated: instruction-fetch
// and data line numbers (address / 64), each in observation order.
type lineBatch struct {
	instr, data [4096]uint64
	ni, nd      int
}

// newValgrindState builds the two sims and starts both sweepers.
func newValgrindState(maxData, maxInstr int) *valgrindState {
	v := &valgrindState{
		dws:     cache.NewWorkingSetSim(maxData),
		iws:     cache.NewWorkingSetSim(maxInstr),
		cur:     new(lineBatch),
		full:    make(chan *lineBatch, sweepBuffers), // ditto:determinism-ok reviewed: sweeper A's queue, see valgrindState
		free:    make(chan *lineBatch, sweepBuffers), // ditto:determinism-ok reviewed: buffer return path of sweeper A
		odds:    make(chan *lineBatch, sweepBuffers), // ditto:determinism-ok reviewed: sweeper B's queue, see valgrindState
		oddFree: make(chan *lineBatch, sweepBuffers), // ditto:determinism-ok reviewed: buffer return path of sweeper B
		doneA:   make(chan struct{}),                 // ditto:determinism-ok reviewed: sweeper A join signal
		doneB:   make(chan struct{}),                 // ditto:determinism-ok reviewed: sweeper B join signal
	}
	for i := 1; i < sweepBuffers; i++ {
		v.free <- new(lineBatch) // ditto:determinism-ok reviewed: seeding A's buffer pool before the sweepers start
	}
	for i := 0; i < sweepBuffers; i++ {
		v.oddFree <- new(lineBatch) // ditto:determinism-ok reviewed: seeding B's buffer pool before the sweepers start
	}
	// ditto:determinism-ok reviewed: sweeper A, see valgrindState. It
	// alone touches the whole stacks and even halves until drain joins it.
	go func(full <-chan *lineBatch, free chan<- *lineBatch, done chan<- struct{}) {
		for b := range full { // ditto:determinism-ok reviewed: one consumer, FIFO order
			v.passOdd(b)
			v.sweepHalf(0, b)
			free <- b // ditto:determinism-ok reviewed: return the emptied buffer
		}
		close(v.odds)
		close(done)
	}(v.full, v.free, v.doneA)
	// ditto:determinism-ok reviewed: sweeper B, see valgrindState. It
	// alone touches the odd halves until drain joins it.
	go func(odds <-chan *lineBatch, oddFree chan<- *lineBatch, done chan<- struct{}) {
		for o := range odds { // ditto:determinism-ok reviewed: one consumer, FIFO order
			v.sweepHalf(1, o)
			oddFree <- o // ditto:determinism-ok reviewed: return the emptied buffer
		}
		close(done)
	}(v.odds, v.oddFree, v.doneB)
	return v
}

// split sweeps batch b through both sims' whole stacks, leaving the even
// halves in b and writing the odd halves to o.
//
// ditto:noalloc
func (v *valgrindState) split(b, o *lineBatch) {
	even, odd := v.iws.Split(b.instr[:b.ni], o.instr[:])
	b.ni, o.ni = len(even), len(odd)
	even, odd = v.dws.Split(b.data[:b.nd], o.data[:])
	b.nd, o.nd = len(even), len(odd)
}

// passOdd is sweeper A's hand-off to B: it splits b into a free odd-half
// batch and queues that batch for B.
//
// ditto:noalloc
func (v *valgrindState) passOdd(b *lineBatch) {
	o := <-v.oddFree // ditto:determinism-ok reviewed: buffer reuse; any free odd batch is empty
	v.split(b, o)
	v.odds <- o // ditto:determinism-ok reviewed: FIFO handoff to sweeper B, see valgrindState
}

// sweepHalf sweeps a split batch through half p of both sims and empties
// it.
//
// ditto:noalloc
func (v *valgrindState) sweepHalf(p int, b *lineBatch) {
	v.iws.SweepHalf(p, b.instr[:b.ni])
	v.dws.SweepHalf(p, b.data[:b.nd])
	b.ni, b.nd = 0, 0
}

// sweepInline sweeps a batch through both sims on the calling goroutine,
// once the sweepers are joined.
//
// ditto:noalloc
func (v *valgrindState) sweepInline(b *lineBatch) {
	v.split(b, v.spare)
	v.sweepHalf(0, b)
	v.sweepHalf(1, v.spare)
}

// handoff passes the full current batch to sweeper A and takes a free
// one. After drain there are no sweepers and the batch is swept inline, so
// late observations keep counting without a goroutine.
//
// ditto:noalloc
func (v *valgrindState) handoff() {
	if v.full == nil {
		v.sweepInline(v.cur)
		return
	}
	v.full <- v.cur  // ditto:determinism-ok reviewed: FIFO handoff to sweeper A, see valgrindState
	v.cur = <-v.free // ditto:determinism-ok reviewed: buffer reuse; any free batch is empty
}

// drain joins both sweepers (once) and sweeps what observe has gathered
// since, after which dws and iws are safe to read. It may be called again:
// each call sweeps the accesses observed since the last one.
func (v *valgrindState) drain() {
	if v.full != nil {
		close(v.full)
		<-v.doneA             // ditto:determinism-ok reviewed: join sweeper A, which closes B's queue last
		<-v.doneB             // ditto:determinism-ok reviewed: join sweeper B before reading the sims
		v.spare = <-v.oddFree // ditto:determinism-ok reviewed: B has returned every odd batch; keep one
		v.full = nil
	}
	v.sweepInline(v.cur)
}

// fetch records one instruction-fetch line.
//
// ditto:noalloc
func (v *valgrindState) fetch(line uint64) {
	b := v.cur
	b.instr[b.ni] = line
	if b.ni++; b.ni == len(b.instr) {
		v.handoff()
	}
}

// access records one data line.
//
// ditto:noalloc
func (v *valgrindState) access(line uint64) {
	b := v.cur
	b.data[b.nd] = line
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
			v.fetch(line)
			v.iFetches++
			v.lastPCLine = line
			v.havePC = true
		}
		f := &isa.Table[in.Op]
		if (f.Load || f.Store) && !f.Rep {
			v.access(in.Addr / isa.LineBytes)
		} else if f.Rep {
			// A REP op sweeps its whole range, one line at a time.
			n := int(in.RepCount)
			if n < 1 {
				n = 1
			}
			first := in.Addr / isa.LineBytes
			for l := 0; l < (n+isa.LineBytes-1)/isa.LineBytes; l++ {
				v.access(first + uint64(l))
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
