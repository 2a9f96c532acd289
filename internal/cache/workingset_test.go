package cache

import (
	"math/rand"
	"testing"
)

// Address bases in four distinct 4GB segments, so consecutive accesses keep
// leaving the segment fast path inside the batch loop.
const (
	stackBase  = 0x7ffd_c000_0000
	heapBase   = 0x10_0000_0000
	repBase    = 0x2_4000_0000
	kernelBase = 0xffff_8000_0000_0000
)

// mixedTrace is a seeded profile-like data stream: hot stack lines, heap
// lines on a few strides over a region past 1MB, REP-like sequential
// sweeps and rare kernel touches.
func mixedTrace(seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	trace := make([]uint64, 0, n+512)
	for len(trace) < n {
		switch r := rng.Intn(100); {
		case r < 45: // hot stack frame
			trace = append(trace, stackBase+uint64(rng.Intn(48))*8)
		case r < 80: // strided heap over 1.5MB
			stride := uint64(64 << rng.Intn(7))
			slot := uint64(rng.Intn(1 << 14))
			trace = append(trace, heapBase+(slot*stride)%(3<<19))
		case r < 83: // REP sweep of up to 256 lines
			start := repBase + uint64(rng.Intn(1<<20))*LineBytes
			lines := uint64(1 + rng.Intn(256))
			for l := uint64(0); l < lines; l++ {
				trace = append(trace, start+l*LineBytes)
			}
		default:
			trace = append(trace, kernelBase+uint64(rng.Intn(1<<12))*LineBytes)
		}
	}
	return trace[:n]
}

// wsAssoc is the §4.4.4 geometry, restated independently of NewWorkingSetSim.
func wsAssoc(size int) int {
	assoc := 8
	if size >= 1<<20 {
		assoc = 16
	}
	if lines := size / LineBytes; lines < assoc {
		assoc = lines
	}
	return assoc
}

// The batched, MRU-pruned sweep must report exactly the hit counts of one
// plain cache per size fed one access at a time — at every Hits call,
// including calls with one line short of, exactly, and one line past a
// full batch pending.
func TestWorkingSetSimMatchesPerSizeCaches(t *testing.T) {
	trace := mixedTrace(7, 12*wsBatch)
	// Accesses between consecutive Hits calls.
	gaps := []int{1, 777, wsBatch - 1, wsBatch, wsBatch + 1, 3*wsBatch + 5}
	for _, maxBytes := range []int{4 << 10, 2 << 20} {
		w := NewWorkingSetSim(maxBytes)
		var ref []*Cache
		for size := LineBytes; size <= maxBytes; size *= 2 {
			ref = append(ref, New(Config{Name: "ref", Size: size, Assoc: wsAssoc(size), Policy: LRU}))
		}
		if len(ref) != len(w.Sizes()) {
			t.Fatalf("max %d: %d sizes, want %d", maxBytes, len(w.Sizes()), len(ref))
		}
		want := make([]uint64, len(ref))
		pos := 0
		for k := 0; pos < len(trace); k++ {
			end := pos + gaps[k%len(gaps)]
			if end > len(trace) {
				end = len(trace)
			}
			for _, a := range trace[pos:end] {
				w.Access(a)
				for i, c := range ref {
					if c.Access(a) {
						want[i]++
					}
				}
			}
			pos = end
			got := w.Hits()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("max %d, after %d accesses: size %d hits = %d, want %d",
						maxBytes, pos, w.Sizes()[i], got[i], want[i])
				}
			}
			if w.Total() != uint64(pos) {
				t.Fatalf("max %d: Total = %d, want %d", maxBytes, w.Total(), pos)
			}
		}
		// The trace must distinguish the sizes it is checked at, or
		// equality proves little.
		if want[0] == want[len(want)-1] {
			t.Fatalf("max %d: trace does not separate sizes: %v", maxBytes, want)
		}
		if maxBytes > 1<<20 && want[len(want)-2] == want[len(want)-1] {
			t.Fatalf("max %d: trace does not separate 1MB from 2MB: %v", maxBytes, want)
		}
	}
}

// MRU pruning is exact only if each stack doubles the previous stack's
// sets (see WorkingSetSim), and stack sharing only if every size a stack
// answers has its sets and at most its ways; a geometry change that breaks
// either must fail here rather than silently skew Eq. 1.
func TestWorkingSetSimGeometryNests(t *testing.T) {
	for _, maxBytes := range []int{1, 4 << 10, 1 << 20, 2 << 20, 256 << 20} {
		w := NewWorkingSetSim(maxBytes)
		first := 0
		for s, c := range w.lru {
			cfg := c.Config()
			if !c.pow2 || cfg.Policy != LRU {
				t.Fatalf("max %d: stack %d is not a power-of-two LRU cache", maxBytes, s)
			}
			if s > 0 && c.Sets() != 2*w.lru[s-1].Sets() {
				t.Errorf("max %d: stack %d has %d sets, want twice the previous stack's %d",
					maxBytes, s, c.Sets(), w.lru[s-1].Sets())
			}
			if w.ends[s] <= first {
				t.Fatalf("max %d: stack %d answers no size", maxBytes, s)
			}
			for i := first; i < w.ends[s]; i++ {
				if sets := w.sizes[i] / (w.ways[i] * LineBytes); sets != c.Sets() || w.ways[i] > cfg.Assoc {
					t.Errorf("max %d: size %d (%d sets × %d ways) is not a prefix of its %d × %d stack",
						maxBytes, w.sizes[i], sets, w.ways[i], c.Sets(), cfg.Assoc)
				}
			}
			first = w.ends[s]
		}
		if first != len(w.sizes) {
			t.Errorf("max %d: stacks answer %d of %d sizes", maxBytes, first, len(w.sizes))
		}
	}
}

// lruPromote must match the textbook move-to-front list update on every
// way count a cache uses.
func TestLRUPromoteMatchesMoveToFront(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, assoc := range []int{1, 2, 4, 8, 16} {
		ways := make([]uint32, assoc)
		var list []uint32 // reference, MRU first, valid tags only
		for i := 0; i < 4000; i++ {
			tag := uint32(1 + rng.Intn(2*assoc))
			want := len(ways)
			for j, v := range list {
				if v == tag {
					want = j
					list = append(list[:j], list[j+1:]...)
					break
				}
			}
			list = append([]uint32{tag}, list...)
			if len(list) > assoc {
				list = list[:assoc]
			}
			if got := lruPromote(ways, tag); got != want {
				t.Fatalf("assoc %d step %d: way = %d, want %d", assoc, i, got, want)
			}
			for j := range ways {
				var ref uint32
				if j < len(list) {
					ref = list[j]
				}
				if ways[j] != ref {
					t.Fatalf("assoc %d step %d: ways = %v, want %v", assoc, i, ways, list)
				}
			}
		}
	}
}

// Once every address segment is known, recording accesses and sweeping
// full batches must not allocate.
func TestWorkingSetSimAccessAllocationFree(t *testing.T) {
	trace := mixedTrace(11, 3*wsBatch)
	w := NewWorkingSetSim(2 << 20)
	for _, a := range trace {
		w.Access(a)
	}
	w.Hits()
	allocs := testing.AllocsPerRun(5, func() {
		for _, a := range trace {
			w.Access(a)
		}
		w.Hits()
	})
	if allocs != 0 {
		t.Fatalf("WorkingSetSim allocates %.1f times per %d accesses", allocs, len(trace))
	}
}
