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
// Accesses are batched: Access only records the line, and a full batch (or
// Hits) sweeps it through the stacks one at a time, fewest sets first. A
// line that is already the MRU way of its set in one stack is dropped from
// the batch there and counted as a hit at every size of that stack and
// every later one. That is exact: each stack doubles the previous stack's
// sets, so with bit-selection indexing the lines mapping to a larger
// stack's set are a subset of those mapping to the smaller stack's set.
// The line last touched in the small set was therefore also last touched
// in the large one, where it is already MRU and touching it again changes
// nothing.
type WorkingSetSim struct {
	sizes []int
	ways  []int    // per size: its associativity, a prefix of its stack
	hits  []uint64 // per size
	total uint64
	lru   []*Cache   // one LRU stack per set count, sets ascending
	ends  []int      // per stack: one past the index of the last size it answers
	pos   [16]uint64 // scratch: one batch's hits by stack position

	n     int             // lines pending in batch
	batch [wsBatch]uint64 // line addresses not yet swept
}

// wsBatch is the number of accesses WorkingSetSim gathers per sweep.
const wsBatch = 4096

// NewWorkingSetSim builds simulators for sizes 64B, 128B, … up to maxBytes
// (rounded up to a power of two).
func NewWorkingSetSim(maxBytes int) *WorkingSetSim {
	if maxBytes < LineBytes {
		maxBytes = LineBytes
	}
	w := &WorkingSetSim{}
	sets := 0
	for size := LineBytes; ; size *= 2 {
		ways := 8
		if size >= 1<<20 {
			ways = 16
		}
		if lines := size / LineBytes; lines < ways {
			ways = lines
		}
		if s := size / (ways * LineBytes); s != sets {
			sets = s
			w.lru = append(w.lru, nil)
			w.ends = append(w.ends, 0)
		}
		// The stack takes the geometry of the largest size it answers.
		last := len(w.lru) - 1
		w.lru[last] = New(Config{Name: "ws", Size: size, Assoc: ways, Policy: LRU})
		w.sizes = append(w.sizes, size)
		w.ways = append(w.ways, ways)
		w.hits = append(w.hits, 0)
		w.ends[last] = len(w.sizes)
		if size >= maxBytes {
			break
		}
	}
	return w
}

// Access records one byte address for every simulated size.
//
// ditto:noalloc
func (w *WorkingSetSim) Access(addr uint64) {
	w.batch[w.n] = addr / LineBytes
	w.n++
	w.total++
	if w.n == len(w.batch) {
		w.flush()
	}
}

// flush sweeps the pending batch through every stack, fewest sets first,
// pruning lines that hit the MRU way (see WorkingSetSim).
//
// ditto:noalloc
func (w *WorkingSetSim) flush() {
	lines := w.batch[:w.n]
	var pruned uint64 // lines dropped so far: hits at every remaining size
	i := 0
	for s, c := range w.lru {
		pos := w.pos[:c.cfg.Assoc]
		clear(pos)
		kept := c.sweepLRU(lines, pos)
		for ; i < w.ends[s]; i++ {
			h := pruned
			for _, n := range pos[:w.ways[i]] {
				h += n
			}
			w.hits[i] += h
		}
		pruned += uint64(len(lines) - kept)
		lines = lines[:kept]
	}
	w.n = 0
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

// Hits returns hit counts parallel to Sizes, first sweeping any pending
// accesses.
func (w *WorkingSetSim) Hits() []uint64 {
	w.flush()
	return w.hits
}

// Total returns the number of accesses observed.
func (w *WorkingSetSim) Total() uint64 { return w.total }
