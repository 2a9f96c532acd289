package cache

import (
	"testing"
	"testing/quick"
)

func seqTrace(lines int, passes int) []uint64 {
	t := make([]uint64, 0, lines*passes)
	for p := 0; p < passes; p++ {
		for l := 0; l < lines; l++ {
			t = append(t, uint64(l)*LineBytes)
		}
	}
	return t
}

func runTrace(c *Cache, trace []uint64) (hits int) {
	for _, a := range trace {
		if c.Access(a) {
			hits++
		}
	}
	return hits
}

func TestBasicHitMiss(t *testing.T) {
	c := New(Config{Name: "t", Size: 1024, Assoc: 2, Policy: LRU})
	if c.Access(0) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0) {
		t.Fatal("second access should hit")
	}
	if !c.Access(63) {
		t.Fatal("same-line access should hit")
	}
	if c.Access(64) {
		t.Fatal("next line should miss")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 1 set: 128 bytes.
	c := New(Config{Name: "t", Size: 128, Assoc: 2, Policy: LRU})
	c.Access(0 * LineBytes)
	c.Access(1 * LineBytes)
	c.Access(0 * LineBytes) // line 0 now MRU
	c.Access(2 * LineBytes) // evicts line 1
	if !c.Contains(0 * LineBytes) {
		t.Fatal("line 0 should survive (MRU)")
	}
	if c.Contains(1 * LineBytes) {
		t.Fatal("line 1 should have been evicted (LRU)")
	}
}

func TestPLRUBehavesLikeACache(t *testing.T) {
	c := New(Config{Name: "t", Size: 8 * LineBytes, Assoc: 8, Policy: PLRU})
	// Fill all 8 ways of the single set.
	for l := 0; l < 8; l++ {
		if c.Access(uint64(l) * LineBytes) {
			t.Fatal("cold fill should miss")
		}
	}
	for l := 0; l < 8; l++ {
		if !c.Access(uint64(l) * LineBytes) {
			t.Fatalf("line %d should hit after fill", l)
		}
	}
	// Insert a 9th line: exactly one resident line must be displaced.
	c.Access(8 * LineBytes)
	resident := 0
	for l := 0; l <= 8; l++ {
		if c.Contains(uint64(l) * LineBytes) {
			resident++
		}
	}
	if resident != 8 {
		t.Fatalf("resident = %d, want 8", resident)
	}
}

func TestPLRUVictimNotMRU(t *testing.T) {
	c := New(Config{Name: "t", Size: 4 * LineBytes, Assoc: 4, Policy: PLRU})
	for l := 0; l < 4; l++ {
		c.Access(uint64(l) * LineBytes)
	}
	c.Access(3 * LineBytes) // touch: way for line 3 is protected
	c.Access(4 * LineBytes) // evicts someone, must not be line 3
	if !c.Contains(3 * LineBytes) {
		t.Fatal("PLRU evicted the most recently used line")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(Config{Name: "t", Size: 1024, Assoc: 4, Policy: LRU})
	c.Access(0)
	c.Invalidate(0)
	if c.Contains(0) {
		t.Fatal("invalidated line still resident")
	}
	if c.Access(0) {
		t.Fatal("access after invalidate should miss")
	}
	c.Invalidate(999999 * LineBytes) // absent line: no-op
}

func TestFlush(t *testing.T) {
	c := New(Config{Name: "t", Size: 1024, Assoc: 4, Policy: LRU, Prefetch: true})
	for l := 0; l < 8; l++ {
		c.Access(uint64(l) * LineBytes)
	}
	c.Flush()
	for l := 0; l < 8; l++ {
		if c.Contains(uint64(l) * LineBytes) {
			t.Fatal("line survived flush")
		}
	}
}

func TestPrefetchNextLine(t *testing.T) {
	mk := func() (*Hierarchy, *Cache, *Cache) {
		l1 := New(Config{Name: "l1", Size: 4096, Assoc: 8, Latency: 4, Policy: LRU, Prefetch: true})
		l2 := New(Config{Name: "l2", Size: 64 << 10, Assoc: 8, Latency: 12, Policy: LRU})
		return &Hierarchy{Caches: [3]*Cache{l1, l2, nil}, MemLatency: 200}, l1, l2
	}
	h, l1, l2 := mk()
	h.Access(0 * LineBytes)
	h.Access(1 * LineBytes) // sequential: prefetches line 2 through all levels
	if !l1.Contains(2*LineBytes) || !l2.Contains(2*LineBytes) {
		t.Fatal("prefetch must fetch through the whole hierarchy")
	}
	if r := h.Access(2 * LineBytes); r.Served != L1 {
		t.Fatalf("prefetched line should hit L1: %+v", r)
	}
	// Random jump must not prefetch.
	h2, l1b, _ := mk()
	h2.Access(0 * LineBytes)
	h2.Access(10 * LineBytes)
	if l1b.Contains(11 * LineBytes) {
		t.Fatal("non-sequential access should not prefetch")
	}
}

// The paper's §4.4.4 guarantee: a sequential cyclic pattern over a working
// set of W bytes hits every time once warm in any LRU cache of size ≥ W, and
// misses every time in any cache of size < W.
func TestWorkingSetGuarantee(t *testing.T) {
	const wsLines = 64 // 4KB working set
	trace := seqTrace(wsLines, 4)
	warm := wsLines // first pass is cold
	for _, pol := range []Policy{LRU, PLRU} {
		big := New(Config{Name: "big", Size: 8192, Assoc: 8, Policy: pol})
		hits := runTrace(big, trace)
		if want := len(trace) - warm; hits != want {
			t.Errorf("policy %d: cache ≥ WS: hits = %d, want %d", pol, hits, want)
		}
		small := New(Config{Name: "small", Size: 2048, Assoc: 8, Policy: pol})
		hits = runTrace(small, trace)
		if hits != 0 {
			t.Errorf("policy %d: cache < WS: hits = %d, want 0 (sequential LRU thrash)", pol, hits)
		}
	}
}

// Property: for sequential working-set traces, hit count is nondecreasing in
// cache size (the monotonicity Eq. 1 relies on).
func TestHitMonotonicityProperty(t *testing.T) {
	f := func(wsPow uint8, passes uint8) bool {
		lines := 1 << (2 + wsPow%7) // 4..256 lines
		p := 2 + int(passes%3)
		trace := seqTrace(lines, p)
		prev := -1
		for size := 256; size <= 64*1024; size *= 2 {
			c := New(Config{Name: "m", Size: size, Assoc: 8, Policy: LRU})
			h := runTrace(c, trace)
			if h < prev {
				return false
			}
			prev = h
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyLatenciesAndLevels(t *testing.T) {
	l1 := New(Config{Name: "l1", Size: 1024, Assoc: 8, Latency: 4, Policy: LRU})
	l2 := New(Config{Name: "l2", Size: 8192, Assoc: 8, Latency: 12, Policy: LRU})
	l3 := New(Config{Name: "l3", Size: 65536, Assoc: 16, Latency: 40, Policy: LRU})
	h := &Hierarchy{Caches: [3]*Cache{l1, l2, l3}, MemLatency: 200}

	r := h.Access(0)
	if r.Served != Mem || r.Latency != 4+12+40+200 {
		t.Fatalf("cold access: %+v", r)
	}
	r = h.Access(0)
	if r.Served != L1 || r.Latency != 4 {
		t.Fatalf("warm access: %+v", r)
	}
	// Evict from L1 only: walk 17 more lines mapping everywhere.
	for l := 1; l < 64; l++ {
		h.Access(uint64(l) * LineBytes)
	}
	r = h.Access(0)
	if r.Served == Mem {
		t.Fatalf("line should be in L2/L3 after L1 eviction: %+v", r)
	}
	if r.Served == L1 {
		t.Fatalf("line unexpectedly still in tiny L1")
	}
}

func TestHierarchyNilLevels(t *testing.T) {
	l1 := New(Config{Name: "l1", Size: 1024, Assoc: 8, Latency: 4, Policy: LRU})
	h := &Hierarchy{Caches: [3]*Cache{l1, nil, nil}, MemLatency: 100}
	r := h.Access(0)
	if r.Served != Mem || r.Latency != 104 {
		t.Fatalf("nil levels: %+v", r)
	}
	if got := h.Access(0); got.Served != L1 {
		t.Fatalf("hit after fill: %+v", got)
	}
}

func TestHierarchyMemPenalty(t *testing.T) {
	h := &Hierarchy{MemLatency: 100, MemPenalty: 50}
	if r := h.Access(0); r.Latency != 150 {
		t.Fatalf("penalty not applied: %+v", r)
	}
}

func TestHierarchyInvalidateAndFlushPrivate(t *testing.T) {
	l1 := New(Config{Name: "l1", Size: 1024, Assoc: 8, Latency: 4, Policy: LRU})
	l3 := New(Config{Name: "l3", Size: 65536, Assoc: 16, Latency: 40, Policy: LRU})
	h := &Hierarchy{Caches: [3]*Cache{l1, nil, l3}, MemLatency: 100}
	h.Access(0)
	h.Invalidate(0)
	if l1.Contains(0) || l3.Contains(0) {
		t.Fatal("invalidate should drop all levels")
	}
	h.Access(0)
	h.FlushPrivate()
	if l1.Contains(0) {
		t.Fatal("flush private should empty L1")
	}
	if !l3.Contains(0) {
		t.Fatal("flush private must keep shared L3")
	}
}

func TestWorkingSetSim(t *testing.T) {
	w := NewWorkingSetSim(4096)
	sizes := w.Sizes()
	if sizes[0] != 64 || sizes[len(sizes)-1] < 4096 {
		t.Fatalf("sizes = %v", sizes)
	}
	// Cyclic 1KB (16-line) pattern, 8 passes.
	trace := seqTrace(16, 8)
	sweepAddrs(w, trace, make([]uint64, len(trace)), make([]uint64, len(trace)))
	if w.Total() != uint64(len(trace)) {
		t.Fatalf("Total = %d", w.Total())
	}
	hits := w.Hits()
	// Caches ≥ 1KB capture all but the cold pass; caches < 1KB thrash.
	for i, size := range sizes {
		if size >= 1024 {
			if hits[i] != uint64(len(trace)-16) {
				t.Errorf("size %d: hits = %d, want %d", size, hits[i], len(trace)-16)
			}
		} else if size < 1024 && hits[i] != 0 {
			t.Errorf("size %d: hits = %d, want 0", size, hits[i])
		}
	}
	// Monotone in size.
	for i := 1; i < len(hits); i++ {
		if hits[i] < hits[i-1] {
			t.Errorf("hits not monotone at %d: %v", i, hits)
		}
	}
}

func TestWorkingSetSimAssocSwitch(t *testing.T) {
	w := NewWorkingSetSim(2 << 20)
	sizes := w.Sizes()
	for i, s := range sizes {
		want := 8
		if s >= 1<<20 {
			want = 16
		}
		if lines := s / LineBytes; lines < want {
			want = lines // tiny sizes clamp associativity to capacity
		}
		if got := w.ways[i]; got != want {
			t.Errorf("size %d: assoc = %d, want %d", s, got, want)
		}
	}
}

func TestWorkingSetSimTiny(t *testing.T) {
	w := NewWorkingSetSim(1) // clamps to one line
	sweepAddrs(w, []uint64{0, 64, 0}, make([]uint64, 3), make([]uint64, 3))
	if h := w.Hits(); h[0] != 0 || w.Total() != 3 {
		t.Fatalf("hits = %v over %d lines, want [0] over 3", h, w.Total())
	}
	if len(w.Sizes()) != 1 || w.Sizes()[0] != 64 {
		t.Fatalf("sizes = %v", w.Sizes())
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "zero", Size: 0, Assoc: 1},
		{Name: "neg", Size: -64, Assoc: 1},
		{Name: "plru-odd", Size: 6 * 64, Assoc: 3, Policy: PLRU},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", cfg.Name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestLevelString(t *testing.T) {
	if L1.String() != "L1" || Mem.String() != "Mem" || Level(9).String() != "?" {
		t.Fatal("level names wrong")
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	// 3 sets × 2 ways: modulo indexing must behave like a normal cache.
	c := New(Config{Name: "odd", Size: 3 * 2 * 64, Assoc: 2, Policy: LRU})
	if c.Sets() != 3 {
		t.Fatalf("sets = %d", c.Sets())
	}
	for l := 0; l < 6; l++ {
		if c.Access(uint64(l) * LineBytes) {
			t.Fatal("cold access hit")
		}
	}
	for l := 0; l < 6; l++ {
		if !c.Access(uint64(l) * LineBytes) {
			t.Fatalf("line %d should hit after fill", l)
		}
	}
	// Lines 0 and 6 and 12 share set 0 (mod 3): third fill evicts LRU.
	c.Access(6 * LineBytes)
	c.Access(12 * LineBytes)
	if c.Contains(0 * LineBytes) {
		t.Fatal("LRU line should be evicted in non-pow2 set")
	}
}
