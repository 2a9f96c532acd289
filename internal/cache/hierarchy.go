package cache

// Level identifies a position in a cache hierarchy.
type Level uint8

// Hierarchy levels, ordered nearest to farthest.
const (
	L1 Level = iota
	L2
	L3
	Mem
	NumLevels = int(Mem) + 1
)

var levelNames = [...]string{"L1", "L2", "L3", "Mem"}

// String returns the level name.
func (l Level) String() string {
	if int(l) < len(levelNames) {
		return levelNames[l]
	}
	return "?"
}

// Result describes one hierarchy access: the total latency in cycles and
// the deepest level that had to be consulted (L1 means an L1 hit).
type Result struct {
	Latency int
	Served  Level
}

// Hierarchy is a one-to-three-level cache stack in front of memory. Any
// level may be nil (skipped). Levels may be shared between hierarchies —
// e.g. a per-core L1/L2 in front of a socket-wide L3 — because Cache methods
// are plain lookups on shared state in a single-threaded simulation.
type Hierarchy struct {
	Caches     [3]*Cache // L1, L2, L3; nil entries are skipped
	MemLatency int       // cycles to reach DRAM after the last level misses
	// MemPenalty is an additive latency applied on top of MemLatency,
	// used by the platform to model DRAM bandwidth contention.
	MemPenalty int

	lastLine uint64
	haveLast bool
}

// Access walks the hierarchy for byte address addr and returns the latency
// and serving level. Missing levels are filled on the way back (inclusive
// behaviour), matching the paper's note that the working-set construction is
// valid for any inclusion policy. When the first level enables prefetching
// and the access continues a sequential stream, the next line is fetched
// through the whole hierarchy: its latency is hidden, but it occupies (and
// evicts) capacity at every level like a real hardware prefetch.
func (h *Hierarchy) Access(addr uint64) Result {
	line := addr / LineBytes
	var res Result
	if l1 := h.Caches[0]; l1 != nil && l1.touch(line) {
		// The common case — an L1 hit — takes no loop machinery.
		res = Result{Latency: l1.cfg.Latency, Served: L1}
	} else {
		lat := 0
		if l1 != nil {
			lat = l1.cfg.Latency
		}
		for i := 1; ; i++ {
			if i == len(h.Caches) {
				res = Result{Latency: lat + h.MemLatency + h.MemPenalty, Served: Mem}
				break
			}
			c := h.Caches[i]
			if c == nil {
				continue
			}
			lat += c.cfg.Latency
			if c.touch(line) {
				res = Result{Latency: lat, Served: Level(i)}
				break
			}
		}
	}
	if l1 := h.Caches[0]; l1 != nil && l1.cfg.Prefetch {
		if h.haveLast && line == h.lastLine+1 {
			for _, c := range h.Caches {
				if c != nil {
					c.install(line + 1)
				}
			}
		}
		h.lastLine = line
		h.haveLast = true
	}
	return res
}

// Invalidate removes the line from every level (coherence invalidation).
func (h *Hierarchy) Invalidate(addr uint64) {
	for _, c := range h.Caches {
		if c != nil {
			c.Invalidate(addr)
		}
	}
}

// FlushPrivate flushes the private (L1, L2) levels — context-switch
// pollution — leaving the shared L3 intact.
func (h *Hierarchy) FlushPrivate() {
	for i, c := range h.Caches {
		if c != nil && i < 2 {
			c.Flush()
		}
	}
}

// WorkingSetSim simulates an array of caches of power-of-two sizes over an
// access trace and counts hits in each, exactly the measurement Ditto makes
// with Valgrind: H(2^i) in Eq. 1/Eq. 2. Sizes below 1MB use 8-way caches,
// sizes at or above 1MB use 16-way, matching §4.4.4.
//
// Sizes with the same set count share one LRU stack (Mattson et al., 1970):
// an MRU-ordered set of a ways holds exactly the lines an a'-way LRU set
// holds in its first a' ways, for every a' ≤ a, so one simulation answers
// every associativity at that set count. 64B–512B share the 1-set 8-way
// stack, and 512KB (1024 sets × 8 ways) shares the 1024-set 16-way stack
// with 1MB. A size with a ways counts the hits at stack positions below a.
//
// Two halves by line parity. Only the 1-set stack is kept whole. Every
// stack of S ≥ 2 sets is simulated as two half stacks of S/2 sets and the
// same ways: one sees the even lines and the other the odd lines, each as
// line>>1. With bit-selection indexing two lines share a set at S sets iff
// they have the same parity and line>>1 shares a set at S/2 sets, and the
// tag above the set bits is the same, so each half stack holds exactly the
// lines its parity keeps in the full stack, in the same order. A size's
// hits are the two halves' counts added. The halves share no state, so
// each may be swept by its own goroutine; the package itself starts none.
//
// Batches are swept one stack at a time, fewest sets first: Split runs the
// whole 1-set stack and partitions what it leaves by parity, and SweepHalf
// runs one half's stacks. A line that is already the MRU way of its set in
// one stack is dropped from the batch there and counted as a hit at every
// size of that stack and every later one. That is exact: each stack
// doubles the previous stack's sets (in each half as in the whole), so with
// bit-selection indexing the lines mapping to a larger stack's set are a
// subset of those mapping to the smaller stack's set. The line last touched
// in the small set was therefore also last touched in the large one, where
// it is already MRU and touching it again changes nothing.
type WorkingSetSim struct {
	sizes  []int
	ways   []int    // per size: its associativity, a prefix of its stack
	hits   []uint64 // per size: what Hits last summed
	total  uint64
	pruned uint64 // lines the whole stack dropped: hits at every half size

	whole  *wsStacks    // the 1-set stack, sizes 64B–512B
	halves [2]*wsStacks // even and odd lines, every larger size
}

// wsStacks is a chain of LRU stacks swept fewest sets first, each doubling
// the previous one's sets, with the hits it has counted for the sizes its
// stacks answer.
type wsStacks struct {
	lru   []*Cache
	first int      // index of the first size the chain answers
	ends  []int    // per stack: one past the index of the last size it answers
	ways  []int    // per size, shared with the WorkingSetSim
	hits  []uint64 // per size; zero outside the chain's sizes
}

// NewWorkingSetSim builds simulators for sizes 64B, 128B, … up to maxBytes
// (rounded up to a power of two).
func NewWorkingSetSim(maxBytes int) *WorkingSetSim {
	if maxBytes < LineBytes {
		maxBytes = LineBytes
	}
	w := &WorkingSetSim{}
	// Per stack: its set count, its ways (those of the largest size it
	// answers) and one past the index of the last size it answers.
	var sets, assoc, ends []int
	for size := LineBytes; ; size *= 2 {
		ways := 8
		if size >= 1<<20 {
			ways = 16
		}
		if lines := size / LineBytes; lines < ways {
			ways = lines
		}
		if s := size / (ways * LineBytes); len(sets) == 0 || s != sets[len(sets)-1] {
			sets, assoc, ends = append(sets, s), append(assoc, 0), append(ends, 0)
		}
		w.sizes = append(w.sizes, size)
		w.ways = append(w.ways, ways)
		assoc[len(assoc)-1] = ways
		ends[len(ends)-1] = len(w.sizes)
		if size >= maxBytes {
			break
		}
	}
	w.hits = make([]uint64, len(w.sizes))
	chain := func(first int, ends []int) *wsStacks {
		return &wsStacks{first: first, ends: ends, ways: w.ways, hits: make([]uint64, len(w.sizes))}
	}
	w.whole = chain(0, ends[:1])
	w.whole.lru = []*Cache{wsStack(sets[0], assoc[0])}
	// Each half is built whole before the next, so the two sweepers'
	// stacks do not interleave in memory.
	for p := range w.halves {
		h := chain(ends[0], ends[1:])
		for s := 1; s < len(sets); s++ {
			h.lru = append(h.lru, wsStack(sets[s]/2, assoc[s]))
		}
		w.halves[p] = h
	}
	return w
}

// wsStack builds one LRU stack of the given sets and ways.
func wsStack(sets, ways int) *Cache {
	return New(Config{Name: "ws", Size: sets * ways * LineBytes, Assoc: ways, Policy: LRU})
}

// Split sweeps a batch of line numbers (byte address / LineBytes), in
// access order, through the whole 1-set stack and partitions the lines it
// does not prune for the halves: the even ones, as line>>1, are compacted
// in place at the front of lines and returned as even; the odd ones, as
// line>>1, are written to the front of odd, which must hold len(lines), and
// returned as odd. Each half must then be swept with its slice
// (SweepHalf), batch by batch in Split's order, before Hits is read.
//
// ditto:noalloc
func (w *WorkingSetSim) Split(lines, odd []uint64) (evenHalf, oddHalf []uint64) {
	w.total += uint64(len(lines))
	rest := w.whole.sweep(lines)
	w.pruned += uint64(len(lines) - len(rest))
	ne, no := 0, 0
	if len(w.halves[0].lru) > 0 {
		for _, l := range rest {
			if l&1 == 0 {
				lines[ne] = l >> 1
				ne++
			} else {
				odd[no] = l >> 1
				no++
			}
		}
	}
	return lines[:ne], odd[:no]
}

// SweepHalf sweeps one half's share of a batch, as Split returned it,
// through the half's stacks: p is 0 for the even half and 1 for the odd.
// Split and the two halves touch disjoint state, so the even half may be
// swept on Split's goroutine while another sweeps the odd one.
//
// ditto:noalloc
func (w *WorkingSetSim) SweepHalf(p int, lines []uint64) {
	w.halves[p].sweep(lines)
}

// sweep runs a batch through the chain's stacks, fewest sets first,
// pruning lines that hit the MRU way (see WorkingSetSim), and returns the
// lines its last stack did not prune, compacted in place.
//
// ditto:noalloc
func (st *wsStacks) sweep(lines []uint64) []uint64 {
	var pos [16]uint64 // one stack's hits by stack position
	var pruned uint64  // lines dropped so far: hits at every remaining size
	i := st.first
	for s, c := range st.lru {
		p := pos[:c.cfg.Assoc]
		clear(p)
		kept := c.sweepLRU(lines, p)
		for ; i < st.ends[s]; i++ {
			h := pruned
			for _, n := range p[:st.ways[i]] {
				h += n
			}
			st.hits[i] += h
		}
		pruned += uint64(len(lines) - kept)
		lines = lines[:kept]
	}
	return lines
}

// sweepLRU runs a batch of line addresses through c in order and adds each
// hit to pos at the stack position (way) it hit; len(pos) must be c's
// associativity. It compacts lines in place to the ones a larger
// working-set stack still has to see, those that did not hit the MRU way,
// and returns how many remain.
// c must be a power-of-two LRU cache, as every working-set stack is.
//
// ditto:noalloc
func (c *Cache) sweepLRU(lines, pos []uint64) (kept int) {
	tags, assoc := c.tags, c.cfg.Assoc
	mask, bits := c.setMask, c.setBits
	lastHigh, seg := c.lastHigh, c.lastSeg
	pos = pos[:assoc]
	for _, line := range lines {
		if high := line >> segShift; high != lastHigh {
			seg, lastHigh = c.segSlow(high), high
		}
		low := line & (1<<segShift - 1)
		tag := seg<<(segShift-bits) + uint32(low>>bits) + 1
		base := int(low&mask) * assoc
		w := lruPromote(tags[base:base+assoc], tag)
		if w == 0 {
			pos[0]++
			continue
		}
		if w < len(pos) {
			pos[w]++
		}
		lines[kept] = line
		kept++
	}
	return kept
}

// Sizes returns the simulated cache sizes in bytes, ascending.
func (w *WorkingSetSim) Sizes() []int { return w.sizes }

// Hits returns hit counts parallel to Sizes over every batch swept so far:
// the whole stack's counts, plus for each larger size the lines the whole
// stack pruned and both halves' counts.
func (w *WorkingSetSim) Hits() []uint64 {
	for i := range w.hits {
		h := w.whole.hits[i] + w.halves[0].hits[i] + w.halves[1].hits[i]
		if i >= w.halves[0].first {
			h += w.pruned
		}
		w.hits[i] = h
	}
	return w.hits
}

// Total returns the number of line accesses Split has been given.
func (w *WorkingSetSim) Total() uint64 { return w.total }
