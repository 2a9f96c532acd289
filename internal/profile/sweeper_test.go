package profile

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ditto/internal/cache"
	"ditto/internal/isa"
	"ditto/internal/platform"
	"ditto/internal/sim"
)

// sweeperStream is a seeded user-level stream: straight-line code with
// jumps between two text regions, loads and stores to a hot stack and a
// 4MB heap in separate 4GB segments, and REP copies of up to 8KB.
func sweeperStream(seed int64, n int) []isa.Instr {
	rng := rand.New(rand.NewSource(seed))
	out := make([]isa.Instr, n)
	pc := uint64(0x40_0000)
	for i := range out {
		if rng.Intn(4) == 0 {
			pc = 0x40_0000 + uint64(rng.Intn(2))<<32 + uint64(rng.Intn(1<<14))*4
		}
		pc += 4
		in := isa.Instr{Op: isa.ADDrr, PC: pc}
		switch r := rng.Intn(100); {
		case r < 30:
			in.Op, in.Addr = isa.MOVload, 0x7ffd_c000_0000+uint64(rng.Intn(64))*8
		case r < 45:
			in.Op, in.Addr = isa.MOVstore, 0x10_0000_0000+uint64(rng.Intn(1<<16))*64
		case r < 48:
			in.Op, in.Addr = isa.REPMOVSB, 0x2_4000_0000+uint64(rng.Intn(1<<12))*64
			in.RepCount = int32(rng.Intn(8 << 10))
		}
		out[i] = in
	}
	return out
}

// inlineReference feeds stream straight into fresh working-set sims, with
// the filtering observe applies restated, as one batch per sim swept on
// the calling goroutine, and returns a valgrindState holding them: the
// measurement without sweepers.
func inlineReference(stream []isa.Instr, maxData, maxInstr int) *valgrindState {
	ref := &valgrindState{
		dws: cache.NewWorkingSetSim(maxData),
		iws: cache.NewWorkingSetSim(maxInstr),
	}
	var instr, data []uint64
	for _, in := range stream {
		ref.instrs++
		if line := in.PC / isa.LineBytes; !ref.havePC || line != ref.lastPCLine {
			instr = append(instr, line)
			ref.iFetches++
			ref.lastPCLine, ref.havePC = line, true
		}
		f := &isa.Table[in.Op]
		switch {
		case f.Rep:
			for off := 0; off == 0 || off < int(in.RepCount); off += isa.LineBytes {
				data = append(data, (in.Addr+uint64(off))/isa.LineBytes)
			}
		case f.Load || f.Store:
			data = append(data, in.Addr/isa.LineBytes)
		}
	}
	for _, sw := range []struct {
		w     *cache.WorkingSetSim
		lines []uint64
	}{{ref.iws, instr}, {ref.dws, data}} {
		even, odd := sw.w.Split(sw.lines, make([]uint64, len(sw.lines)))
		sw.w.SweepHalf(0, even)
		sw.w.SweepHalf(1, odd)
	}
	return ref
}

// The sweeper must hand every sim exactly the access sequence an inline
// call gives it: the derived working sets equal the inline reference's, at
// several full batches and a partial last one.
func TestSweeperMatchesInlineSims(t *testing.T) {
	stream := sweeperStream(17, 16000)
	ref := inlineReference(stream, 64<<20, 256<<10)
	batch := len(lineBatch{}.data)
	if n := ref.dws.Total(); n < 3*uint64(batch) || n%uint64(batch) == 0 {
		t.Fatalf("stream gives %d data accesses; want 3+ full batches and a partial one", n)
	}
	if n := ref.iws.Total(); n < uint64(batch) || n%uint64(batch) == 0 {
		t.Fatalf("stream gives %d fetches; want a full batch and a partial one", n)
	}

	v := newValgrindState(64<<20, 256<<10)
	for pos := 0; pos < len(stream); {
		end := min(pos+1+pos%97, len(stream)) // uneven chunks, like bursts
		v.observe(stream[pos:end])
		pos = end
	}
	v.drain()
	if got, want := v.deriveDWS(), ref.deriveDWS(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DWS = %v, want %v", got, want)
	}
	if got, want := v.deriveIWS(), ref.deriveIWS(); !reflect.DeepEqual(got, want) {
		t.Fatalf("IWS = %v, want %v", got, want)
	}
	if len(v.deriveDWS()) < 3 {
		t.Fatalf("DWS has %d bins; the stream separates too few sizes", len(v.deriveDWS()))
	}
}

// sweepers counts the live sweeper goroutines.
func sweepers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by ditto/internal/profile.newValgrindState")
}

// waitFor polls cond for up to five seconds: a joined goroutine still
// counts until it has returned.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// Attach starts both sweepers and Finish joins both; a second Finish and
// observations that arrive after the first (the engine keeps running with
// the observer installed) must work without a panic and without a new
// goroutine.
func TestSweeperAfterFinish(t *testing.T) {
	if !waitFor(func() bool { return sweepers() == 0 }) {
		t.Fatalf("%d sweepers left running by earlier tests", sweepers())
	}
	base := runtime.NumGoroutine()
	m := platform.NewMachine(sim.NewEngine(), "m", platform.A())
	p := NewProfiler("app")
	p.Attach(m.Kernel.NewProc("app"))
	if n := sweepers(); n != 2 {
		t.Fatalf("sweepers after Attach = %d, want 2", n)
	}
	stream := sweeperStream(5, 3000)
	p.vg.observe(stream)
	p.Finish()
	if !waitFor(func() bool { return runtime.NumGoroutine() <= base && sweepers() == 0 }) {
		t.Fatalf("goroutines after Finish = %d (%d sweepers), want %d", runtime.NumGoroutine(), sweepers(), base)
	}

	late := sweeperStream(6, 3000)
	p.vg.observe(late) // more than one batch of data accesses
	if n := runtime.NumGoroutine(); n > base || sweepers() != 0 {
		t.Fatalf("goroutines after late observations = %d (%d sweepers), want %d", n, sweepers(), base)
	}
	prof := p.Finish()
	if n := runtime.NumGoroutine(); n > base || sweepers() != 0 {
		t.Fatalf("goroutines after a second Finish = %d (%d sweepers), want %d", n, sweepers(), base)
	}
	if len(prof.Body.DWS) == 0 || len(prof.Body.IWS) == 0 {
		t.Fatal("second Finish derived no working sets")
	}
	ref := inlineReference(append(stream, late...), p.MaxDataWS, p.MaxInstrWS)
	if got, want := p.vg.dws.Total(), ref.dws.Total(); got != want || want < 2*uint64(len(lineBatch{}.data)) {
		t.Fatalf("data accesses counted = %d, want %d over more than one late batch", got, want)
	}
}

// In steady state observing allocates nothing: batches cycle through the
// fixed buffers on both sides of the pipeline, and the sims sweep in
// place.
func TestSweeperObserveAllocationFree(t *testing.T) {
	v := newValgrindState(64<<20, 256<<10)
	defer v.drain()
	stream := sweeperStream(9, 4000)
	// Warm up until every stack of both sims has seen every address
	// segment: with up to sweepBuffers batches in flight on each side of
	// the pipeline, a pass is swept by both sweepers once later passes
	// have handed off twice that many more.
	for i := 0; i < 2*sweepBuffers+1; i++ {
		v.observe(stream)
	}
	allocs := testing.AllocsPerRun(5, func() { v.observe(stream) })
	if allocs != 0 {
		t.Fatalf("observe allocates %.1f times per %d instructions", allocs, len(stream))
	}
}

// BenchmarkSweeperRepSweeps pushes the shape of the cache package's
// BenchmarkWorkingSetSimRepSweeps through observe and drain: 8KB REP
// copies, each 128 consecutive lines whose start advances 1–8 lines within
// a 16KB region, plus about 10% plain loads and stores, all at one PC. It
// reports host ns per data line access from the first observe to the end
// of drain, so it times the sweepers' pipeline, not the sims alone.
func BenchmarkSweeperRepSweeps(b *testing.B) {
	const copyLines, region = 128, (16 << 10) / isa.LineBytes
	const pc = 0x40_0000
	rng := rand.New(rand.NewSource(1))
	var stream []isa.Instr
	lines := 0
	var start uint64
	for lines < 1<<16 {
		start = (start + 1 + uint64(rng.Intn(8))) % (region - copyLines)
		stream = append(stream, isa.Instr{Op: isa.REPMOVSB, PC: pc,
			Addr: 0x2_4000_0000 + start*isa.LineBytes, RepCount: copyLines * isa.LineBytes})
		lines += copyLines
		for n := rng.Intn(29); n > 0; n-- { // about 14 per copy: 10%
			in := isa.Instr{Op: isa.MOVload, PC: pc, Addr: 0x7ffd_c000_0000 + uint64(rng.Intn(64))*8}
			if rng.Intn(2) == 0 {
				in.Op, in.Addr = isa.MOVstore, 0x10_0000_0000+uint64(rng.Intn(1<<14))*isa.LineBytes
			}
			stream = append(stream, in)
			lines++
		}
	}
	v := newValgrindState(64<<20, 256<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.observe(stream)
	}
	v.drain()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/access")
}
