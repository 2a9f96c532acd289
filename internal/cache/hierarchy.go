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
// Accesses are batched: Access only records the line, and a full batch (or
// Hits) sweeps it through the caches one size at a time, smallest first. A
// line that is already the MRU way of its set at one size is dropped from
// the batch there and counted as a hit at that size and every larger one.
// That is exact: each step up the chain doubles the sets at equal ways or
// the ways at equal sets, so with bit-selection indexing the lines mapping
// to a larger cache's set are a subset of those mapping to the smaller
// cache's set. The line last touched in the small set was therefore also
// last touched in the large one, where it is already MRU and touching it
// again changes nothing.
type WorkingSetSim struct {
	sizes  []int
	caches []*Cache
	hits   []uint64
	total  uint64

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
	for size := LineBytes; ; size *= 2 {
		assoc := 8
		if size >= 1<<20 {
			assoc = 16
		}
		if size < assoc*LineBytes {
			assoc = size / LineBytes
			if assoc == 0 {
				assoc = 1
			}
		}
		w.sizes = append(w.sizes, size)
		w.caches = append(w.caches, New(Config{
			Name:   "ws",
			Size:   size,
			Assoc:  assoc,
			Policy: LRU,
		}))
		w.hits = append(w.hits, 0)
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

// flush sweeps the pending batch through every size, smallest first,
// pruning lines that hit the MRU way (see WorkingSetSim).
//
// ditto:noalloc
func (w *WorkingSetSim) flush() {
	lines := w.batch[:w.n]
	var pruned uint64 // lines dropped so far: hits at every remaining size
	for i, c := range w.caches {
		kept, hits := c.sweepLRU(lines)
		w.hits[i] += pruned + hits
		pruned += uint64(len(lines) - kept)
		lines = lines[:kept]
	}
	w.n = 0
}

// sweepLRU runs a batch of line addresses through c in order and counts the
// hits. It compacts lines in place to the ones a larger working-set cache
// still has to see, those that did not hit the MRU way, and returns how
// many remain.
// c must be a power-of-two LRU cache, as every working-set cache is.
//
// ditto:noalloc
func (c *Cache) sweepLRU(lines []uint64) (kept int, hits uint64) {
	tags, assoc := c.tags, c.cfg.Assoc
	mask, bits := c.setMask, c.setBits
	lastHigh, seg := c.lastHigh, c.lastSeg
	for _, line := range lines {
		if high := line >> segShift; high != lastHigh {
			seg, lastHigh = c.segSlow(high), high
		}
		low := line & (1<<segShift - 1)
		tag := seg<<(segShift-bits) + uint32(low>>bits) + 1
		base := int(low&mask) * assoc
		w := lruPromote(tags[base:base+assoc], tag)
		if w < assoc {
			hits++
		}
		if w == 0 {
			continue
		}
		lines[kept] = line
		kept++
	}
	return kept, hits
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
