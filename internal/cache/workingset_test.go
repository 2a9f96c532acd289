package cache

import (
	"fmt"
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

// sweepAddrs drives w's batch entry point as one caller does: it turns
// byte addresses into line numbers in lines, splits them and sweeps both
// halves. lines and odd must hold len(addrs). It returns how many lines
// each half was given.
func sweepAddrs(w *WorkingSetSim, addrs, lines, odd []uint64) (nEven, nOdd int) {
	lines = lines[:len(addrs)]
	for i, a := range addrs {
		lines[i] = a / LineBytes
	}
	even, o := w.Split(lines, odd)
	w.SweepHalf(0, even)
	w.SweepHalf(1, o)
	return len(even), len(o)
}

// withParity returns trace with every address moved into a line of the
// given parity (0 even, 1 odd), keeping its offset in the line.
func withParity(trace []uint64, parity uint64) []uint64 {
	out := make([]uint64, len(trace))
	for i, a := range trace {
		out[i] = a&^LineBytes | parity*LineBytes
	}
	return out
}

// The split, MRU-pruned sweep must report exactly the hit counts of one
// plain cache per size fed one access at a time, at every Hits call, over
// batches of uneven length: one line (where one half gets nothing), just
// under, at and just over 4096 lines, and a long one. Traces of only even
// or only odd lines leave one half idle for the whole run, and a largest
// size below 1KB leaves no halves at all.
func TestWorkingSetSimMatchesPerSizeCaches(t *testing.T) {
	const batch = 4096
	mixed := mixedTrace(7, 12*batch)
	traces := []struct {
		name  string
		trace []uint64
	}{
		{"mixed", mixed},
		{"even", withParity(mixed, 0)},
		{"odd", withParity(mixed, 1)},
	}
	// Accesses between consecutive Hits calls.
	gaps := []int{1, 777, batch - 1, batch, batch + 1, 3*batch + 5}
	lines := make([]uint64, 3*batch+5)
	odd := make([]uint64, len(lines))
	for _, tr := range traces {
		for _, maxBytes := range []int{512, 4 << 10, 2 << 20} {
			w := NewWorkingSetSim(maxBytes)
			var ref []*Cache
			for size := LineBytes; size <= maxBytes; size *= 2 {
				ref = append(ref, New(Config{Name: "ref", Size: size, Assoc: wsAssoc(size), Policy: LRU}))
			}
			if len(ref) != len(w.Sizes()) {
				t.Fatalf("%s, max %d: %d sizes, want %d", tr.name, maxBytes, len(w.Sizes()), len(ref))
			}
			want := make([]uint64, len(ref))
			oneSided := 0 // batches that gave lines to exactly one half
			pos := 0
			for k := 0; pos < len(tr.trace); k++ {
				end := min(pos+gaps[k%len(gaps)], len(tr.trace))
				for _, a := range tr.trace[pos:end] {
					for i, c := range ref {
						if c.Access(a) {
							want[i]++
						}
					}
				}
				if ne, no := sweepAddrs(w, tr.trace[pos:end], lines, odd); (ne == 0) != (no == 0) {
					oneSided++
				}
				pos = end
				got := w.Hits()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s, max %d, after %d accesses: size %d hits = %d, want %d",
							tr.name, maxBytes, pos, w.Sizes()[i], got[i], want[i])
					}
				}
				if w.Total() != uint64(pos) {
					t.Fatalf("%s, max %d: Total = %d, want %d", tr.name, maxBytes, w.Total(), pos)
				}
			}
			// The trace must distinguish the sizes it is checked at, or
			// equality proves little.
			if want[0] == want[len(want)-1] {
				t.Fatalf("%s, max %d: trace does not separate sizes: %v", tr.name, maxBytes, want)
			}
			if tr.name == "mixed" && maxBytes > 1<<20 && want[len(want)-2] == want[len(want)-1] {
				t.Fatalf("max %d: trace does not separate 1MB from 2MB: %v", maxBytes, want)
			}
			if maxBytes >= 1<<10 && oneSided == 0 {
				t.Fatalf("%s, max %d: no batch left one half without lines", tr.name, maxBytes)
			}
		}
	}
}

// MRU pruning is exact only if each stack doubles the previous stack's
// sets (see WorkingSetSim), the parity split only if each half stack has
// half the sets of the full stack it stands for, and stack sharing only if
// every size a stack answers has the full stack's sets and at most its
// ways. A geometry change that breaks any of these must fail here rather
// than silently skew Eq. 1.
func TestWorkingSetSimGeometryNests(t *testing.T) {
	for _, maxBytes := range []int{1, 512, 4 << 10, 1 << 20, 2 << 20, 256 << 20} {
		w := NewWorkingSetSim(maxBytes)
		// stands checks that stack c stands for a full stack of sets sets
		// for sizes [first, end).
		stands := func(name string, c *Cache, sets, first, end int) {
			cfg := c.Config()
			if !c.pow2 || cfg.Policy != LRU {
				t.Fatalf("max %d: %s is not a power-of-two LRU cache", maxBytes, name)
			}
			if end <= first {
				t.Fatalf("max %d: %s answers no size", maxBytes, name)
			}
			for i := first; i < end; i++ {
				if s := w.sizes[i] / (w.ways[i] * LineBytes); s != sets || w.ways[i] > cfg.Assoc {
					t.Errorf("max %d: size %d (%d sets × %d ways) is not a prefix of %s, standing for %d sets × %d ways",
						maxBytes, w.sizes[i], s, w.ways[i], name, sets, cfg.Assoc)
				}
			}
		}
		if len(w.whole.lru) != 1 || w.whole.lru[0].Sets() != 1 {
			t.Fatalf("max %d: the whole chain is not one 1-set stack", maxBytes)
		}
		stands("the whole stack", w.whole.lru[0], 1, 0, w.whole.ends[0])
		for p, h := range w.halves {
			other := w.halves[1-p]
			if h.first != w.whole.ends[0] || len(h.lru) != len(other.lru) {
				t.Fatalf("max %d: half %d starts at size %d with %d stacks; want size %d and the other half's %d",
					maxBytes, p, h.first, len(h.lru), w.whole.ends[0], len(other.lru))
			}
			first := h.first
			for s, c := range h.lru {
				name := fmt.Sprintf("half %d stack %d", p, s)
				// The first half stack stands for twice the whole stack's
				// sets, so it has the whole stack's; each later one has
				// twice the previous half stack's.
				want := w.whole.lru[0].Sets()
				if s > 0 {
					want = 2 * h.lru[s-1].Sets()
				}
				if c.Sets() != want {
					t.Errorf("max %d: %s has %d sets, want %d", maxBytes, name, c.Sets(), want)
				}
				if o := other.lru[s]; o.Sets() != c.Sets() || o.Config().Assoc != c.Config().Assoc {
					t.Errorf("max %d: %s differs from the other half's", maxBytes, name)
				}
				stands(name, c, 2*c.Sets(), first, h.ends[s])
				first = h.ends[s]
			}
			if first != len(w.sizes) {
				t.Errorf("max %d: half %d answers sizes up to %d of %d", maxBytes, p, first, len(w.sizes))
			}
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

// Once every address segment is known, splitting and sweeping batches
// must not allocate.
func TestWorkingSetSimAccessAllocationFree(t *testing.T) {
	trace := mixedTrace(11, 3*4096)
	lines := make([]uint64, 4096)
	odd := make([]uint64, len(lines))
	w := NewWorkingSetSim(2 << 20)
	run := func() {
		for pos := 0; pos < len(trace); pos += len(lines) {
			sweepAddrs(w, trace[pos:pos+len(lines)], lines, odd)
		}
		w.Hits()
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("WorkingSetSim allocates %.1f times per %d accesses", allocs, len(trace))
	}
}
