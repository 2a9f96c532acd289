package cache

import (
	"math/rand"
	"testing"
)

// BenchmarkAccessHit measures the warm-hit fast path.
func BenchmarkAccessHit(b *testing.B) {
	c := New(Config{Name: "b", Size: 32 << 10, Assoc: 8, Policy: LRU})
	for l := 0; l < 512; l++ {
		c.Access(uint64(l) * LineBytes)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%512) * LineBytes)
	}
}

// BenchmarkHierarchyMiss measures a full three-level walk to memory.
func BenchmarkHierarchyMiss(b *testing.B) {
	l1 := New(Config{Name: "l1", Size: 32 << 10, Assoc: 8, Latency: 4, Policy: LRU})
	l2 := New(Config{Name: "l2", Size: 1 << 20, Assoc: 16, Latency: 12, Policy: LRU})
	l3 := New(Config{Name: "l3", Size: 8 << 20, Assoc: 16, Latency: 40, Policy: PLRU})
	h := &Hierarchy{Caches: [3]*Cache{l1, l2, l3}, MemLatency: 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i) * 64 * 131) // strided to defeat all levels
	}
}

// BenchmarkWorkingSetSim measures the Valgrind-analog profiling cost per
// access across the full power-of-two sweep.
func BenchmarkWorkingSetSim(b *testing.B) {
	trace := make([]uint64, 1<<16)
	for i := range trace {
		trace[i] = uint64(i*64) % (32 << 20)
	}
	benchWorkingSetSim(b, trace)
}

// BenchmarkWorkingSetSimMixed measures the sweep on a seeded profile-like
// mix — about 75% hot or reused lines, 25% streaming lines — where MRU
// pruning drops most accesses after the smallest sizes. BenchmarkWorkingSetSim
// above is the streaming-only worst case, which pruning cannot help.
func BenchmarkWorkingSetSimMixed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	trace := make([]uint64, 1<<16)
	var stream uint64
	for i := range trace {
		switch r := rng.Intn(4); r {
		case 0: // streaming through 32MB
			stream = (stream + LineBytes) % (32 << 20)
			trace[i] = heapBase + stream
		case 1: // reused heap lines within 256KB
			trace[i] = heapBase + (64 << 20) + uint64(rng.Intn(4096))*LineBytes
		default: // hot stack lines
			trace[i] = stackBase + uint64(rng.Intn(64))*8
		}
	}
	benchWorkingSetSim(b, trace)
}

// BenchmarkWorkingSetSimRepSweeps measures the sweep on the shape of a
// storage server's copy traffic: 8KB REP copies, each 128 consecutive lines
// whose start advances 1–8 lines within a 16KB region, so consecutive
// copies overlap heavily, plus about 10% plain accesses. Every line misses
// the sizes up to 4KB, and MRU pruning drops almost none of them before
// 64KB — the case that stack sharing, not pruning, makes cheaper.
func BenchmarkWorkingSetSimRepSweeps(b *testing.B) {
	const copyLines, region = 128, (16 << 10) / LineBytes
	rng := rand.New(rand.NewSource(1))
	trace := make([]uint64, 0, 1<<16+copyLines+32)
	var start uint64
	for len(trace) < 1<<16 {
		start = (start + 1 + uint64(rng.Intn(8))) % (region - copyLines)
		for l := uint64(0); l < copyLines; l++ {
			trace = append(trace, repBase+(start+l)*LineBytes)
		}
		for n := rng.Intn(29); n > 0; n-- { // about 14 per copy: 10%
			if rng.Intn(2) == 0 {
				trace = append(trace, stackBase+uint64(rng.Intn(64))*8)
			} else {
				trace = append(trace, heapBase+uint64(rng.Intn(1<<14))*LineBytes)
			}
		}
	}
	trace = trace[:1<<16]
	benchWorkingSetSim(b, trace)
}

// benchWorkingSetSim sweeps b.N accesses of trace, cycled, through a 64MB
// sim in 4096-line batches, the way one caller drives Split and SweepHalf.
// len(trace) must be a multiple of the batch.
func benchWorkingSetSim(b *testing.B, trace []uint64) {
	w := NewWorkingSetSim(64 << 20)
	lines := make([]uint64, 4096)
	odd := make([]uint64, len(lines))
	b.ResetTimer()
	for done := 0; done < b.N; {
		pos := done % len(trace)
		n := min(len(lines), b.N-done)
		sweepAddrs(w, trace[pos:pos+n], lines, odd)
		done += n
	}
}
