// Package cache implements the set-associative cache models used across the
// simulator: single caches with LRU or tree-PLRU replacement, a next-line
// prefetcher, multi-level hierarchies with per-level latencies, and the
// power-of-two working-set simulator that plays the role of Valgrind in the
// Ditto pipeline (Eq. 1 and Eq. 2 of the paper).
package cache

import "fmt"

// LineBytes is the cache line size, fixed at 64 bytes as in the paper.
const LineBytes = 64

// Policy selects a replacement policy.
type Policy uint8

// Replacement policies. The paper's working-set argument (§4.4.4) holds for
// LRU and its pseudo-LRU variants; both are provided so the property can be
// tested against each.
const (
	LRU Policy = iota
	PLRU
)

// Config describes one cache.
type Config struct {
	Name     string
	Size     int    // capacity in bytes
	Assoc    int    // ways per set
	Latency  int    // hit latency in cycles
	Policy   Policy // replacement policy
	Prefetch bool   // next-line prefetch on sequential access pattern
}

// Cache is a single-level set-associative cache. The zero value is not
// usable; construct with New. Cache is not safe for concurrent use — the
// simulation is single-threaded by design.
//
// LRU sets keep their ways in MRU order (tags[base] is the most recently
// used line, the tail is the victim), which is observably identical to
// timestamp LRU — same hit/miss sequence, same evictions — but needs no
// stamp array: a hot line hits on the first compare and a replacement is
// one shift of the set.
//
// Tags are stored in 32 bits with the set-index bits stripped and the high
// address bits compressed through a per-cache segment table (see locate),
// halving the tag-array footprint — these arrays are the simulator's own
// working set, so their size directly sets the model's host cache-miss
// cost.
type Cache struct {
	cfg      Config
	sets     int
	setMask  uint64 // sets-1 when sets is a power of two, else 0
	setBits  uint   // log2(sets) when pow2
	pow2     bool
	tags     []uint32 // sets × assoc, 0 = invalid; MRU-ordered per set for LRU
	plruBits []uint64 // per-set PLRU tree bits (PLRU policy)

	// Segment table: simulated address spaces are sparse (64GB-spaced
	// processes, a high kernel text base), so the bits above segShift take
	// few distinct values per cache. Each distinct high part gets a small
	// id on first touch, making the compacted line fit 32-bit tags for any
	// address layout. lastHigh/lastSeg cache the previous lookup — hit on
	// almost every access.
	lastHigh uint64
	lastSeg  uint32
	segs     []uint64 // segment id -> high part; index is the id
	maxSegs  int
}

// New builds a cache from cfg. Size must be a positive multiple of
// Assoc×LineBytes; non-power-of-two set counts (real LLCs like Table 1's
// 30.25MB) index by modulo. Assoc must be a power of two for PLRU.
func New(cfg Config) *Cache {
	if cfg.Assoc <= 0 || cfg.Size <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry size=%d assoc=%d", cfg.Name, cfg.Size, cfg.Assoc))
	}
	sets := cfg.Size / (cfg.Assoc * LineBytes)
	if sets == 0 {
		sets = 1
	}
	if cfg.Policy == PLRU && cfg.Assoc&(cfg.Assoc-1) != 0 {
		panic(fmt.Sprintf("cache %s: PLRU needs power-of-two associativity, got %d", cfg.Name, cfg.Assoc))
	}
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		pow2:     sets&(sets-1) == 0,
		tags:     make([]uint32, sets*cfg.Assoc),
		lastHigh: ^uint64(0),
	}
	if c.pow2 {
		c.setMask = uint64(sets - 1)
		c.setBits = uint(log2(sets))
		if c.setBits > segShift {
			panic(fmt.Sprintf("cache %s: %d sets exceed the segment granularity", cfg.Name, sets))
		}
		// Tag layout: segment id above segShift-setBits compacted-line
		// bits, plus one for the invalid marker.
		c.maxSegs = 1 << (31 - (segShift - c.setBits))
	} else {
		// Tag is compactedLine/sets+1; compactedLine may use up to
		// 32+log2(sets) bits before the quotient overflows.
		c.maxSegs = int(min64(uint64(sets)<<(32-segShift), 1<<24))
	}
	if cfg.Policy == PLRU {
		c.plruBits = make([]uint64, sets)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Sets reports the number of sets.
func (c *Cache) Sets() int { return c.sets }

// segShift splits a line address into (high, low): lows cover 2^26 lines =
// 4GB of address space, highs go through the segment table.
const segShift = 26

// segID resolves the segment id for a line's high part, allocating on first
// touch when alloc is set. ok is false only when the segment is unknown and
// alloc is false (the line cannot be resident then).
func (c *Cache) segID(line uint64, alloc bool) (uint32, bool) {
	high := line >> segShift
	if high == c.lastHigh {
		return c.lastSeg, true
	}
	for i, h := range c.segs {
		if h == high {
			c.lastHigh, c.lastSeg = high, uint32(i)
			return uint32(i), true
		}
	}
	if !alloc {
		return 0, false
	}
	return c.segSlow(high), true
}

// segSlow resolves (allocating if new) the id for a high part that missed
// the lastHigh fast path.
func (c *Cache) segSlow(high uint64) uint32 {
	for i, h := range c.segs {
		if h == high {
			c.lastHigh, c.lastSeg = high, uint32(i)
			return uint32(i)
		}
	}
	if len(c.segs) >= c.maxSegs {
		panic(fmt.Sprintf("cache %s: more than %d distinct 4GB address segments", c.cfg.Name, c.maxSegs))
	}
	id := uint32(len(c.segs))
	c.segs = append(c.segs, high)
	c.lastHigh, c.lastSeg = high, id
	return id
}

// locate maps a line address to its set and its stored 32-bit tag.
//
// Power-of-two caches index the set from the line's own low bits — exactly
// as before tags were compressed — and build the tag from the segment id
// plus the remaining low bits, a bijective encoding of the line (+1 keeps 0
// free as the invalid-way marker), so their hit/miss/eviction behaviour is
// unchanged. Modulo-indexed caches (a real LLC like 30.25MB) index the
// compacted line instead; that is a different but equally uniform and fully
// deterministic set mapping.
func (c *Cache) locate(line uint64, alloc bool) (set int, tag uint32, ok bool) {
	seg, ok := c.segID(line, alloc)
	if !ok {
		return 0, 0, false
	}
	low := line & (1<<segShift - 1)
	if c.pow2 {
		set = int(low & c.setMask)
		return set, uint32(seg)<<(segShift-c.setBits) + uint32(low>>c.setBits) + 1, true
	}
	v := uint64(seg)<<segShift | low
	q := v / uint64(c.sets)
	return int(v - q*uint64(c.sets)), uint32(q) + 1, true
}

// Access looks up the line containing byte address addr, filling it on a
// miss, and reports whether it hit. Prefetching is orchestrated by the
// Hierarchy (Config.Prefetch on the first level enables it there), because
// a real prefetch fetches through the whole hierarchy rather than
// materializing lines in one level.
func (c *Cache) Access(addr uint64) bool {
	return c.touch(addr / LineBytes)
}

// touch performs lookup+fill+replacement bookkeeping for one line — the
// hottest loop in the simulator. LRU sets go through lruPromote, the one LRU
// update rule (the working-set sweep uses it too).
// The set/tag computation is locate(line, true) spelled out inline: the
// segment fast path (same 4GB region as the previous access) and the tag
// arithmetic stay in this frame, keeping the per-access call count at zero
// on the hot path.
func (c *Cache) touch(line uint64) bool {
	high := line >> segShift
	seg := c.lastSeg
	if high != c.lastHigh {
		seg = c.segSlow(high)
	}
	low := line & (1<<segShift - 1)
	var set int
	var tag uint32
	if c.pow2 {
		set = int(low & c.setMask)
		tag = seg<<(segShift-c.setBits) + uint32(low>>c.setBits) + 1
	} else {
		v := uint64(seg)<<segShift | low
		q := v / uint64(c.sets)
		set = int(v - q*uint64(c.sets))
		tag = uint32(q) + 1
	}
	base := set * c.cfg.Assoc
	ways := c.tags[base : base+c.cfg.Assoc]
	if c.plruBits == nil { // LRU
		return lruPromote(ways, tag) < len(ways)
	}
	for w, t := range ways {
		if t == tag {
			c.plruTouch(set, w)
			return true
		}
	}
	c.fillPLRU(set, ways, tag)
	return false
}

// lruPromote is the LRU update rule for one MRU-ordered set: it moves tag to
// the head, shifting the ways it passes down by one as it scans, and
// reports the way tag was found in — len(ways) on a miss, which has then
// evicted the tail (an invalid way whenever the set is not full, since
// untouched zeros sink to the tail and Invalidate moves them there).
func lruPromote(ways []uint32, tag uint32) int {
	prev := ways[0]
	if prev == tag {
		return 0
	}
	ways[0] = tag
	for w := 1; w < len(ways); w++ {
		cur := ways[w]
		ways[w] = prev
		if cur == tag {
			return w
		}
		prev = cur
	}
	return len(ways)
}

// Install fills a line without reporting hit/miss (the prefetch path). If
// the line is already resident it is promoted.
func (c *Cache) Install(addr uint64) { c.install(addr / LineBytes) }

// install fills a line without reporting hit/miss (prefetch path). If the
// line is already resident it is promoted.
func (c *Cache) install(line uint64) {
	c.touch(line)
}

// fillPLRU victimizes the first invalid way, else the tree's pseudo-LRU
// way, and installs tag there.
func (c *Cache) fillPLRU(set int, ways []uint32, tag uint32) {
	victim := -1
	for w, t := range ways {
		if t == 0 {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = c.plruVictim(set)
	}
	ways[victim] = tag
	c.plruTouch(set, victim)
}

// plruTouch updates the PLRU tree so that way w is protected.
func (c *Cache) plruTouch(set, w int) {
	bits := c.plruBits[set]
	node := 1
	levels := log2(c.cfg.Assoc)
	for l := levels - 1; l >= 0; l-- {
		bit := (w >> l) & 1
		// Point the node away from the touched way.
		if bit == 1 {
			bits &^= 1 << uint(node)
		} else {
			bits |= 1 << uint(node)
		}
		node = node*2 + bit
	}
	c.plruBits[set] = bits
}

// plruVictim walks the PLRU tree toward the pseudo-least-recently-used way.
func (c *Cache) plruVictim(set int) int {
	bits := c.plruBits[set]
	node := 1
	w := 0
	levels := log2(c.cfg.Assoc)
	for l := 0; l < levels; l++ {
		dir := int(bits>>uint(node)) & 1
		w = w*2 + dir
		node = node*2 + dir
	}
	return w
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// Contains reports whether the line holding addr is resident, without
// touching replacement state.
func (c *Cache) Contains(addr uint64) bool {
	line := addr / LineBytes
	set, tag, ok := c.locate(line, false)
	if !ok {
		return false
	}
	base := set * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// Invalidate drops the line holding addr, modeling a coherence
// invalidation from another core. In an MRU-ordered (LRU) set the freed
// slot shifts to the tail so the next fill reuses it before evicting a
// valid line, matching the fill-invalid-first rule.
func (c *Cache) Invalidate(addr uint64) {
	line := addr / LineBytes
	set, tag, ok := c.locate(line, false)
	if !ok {
		return
	}
	base := set * c.cfg.Assoc
	ways := c.tags[base : base+c.cfg.Assoc]
	for w, t := range ways {
		if t == tag {
			if c.plruBits == nil {
				copy(ways[w:], ways[w+1:])
				ways[len(ways)-1] = 0
			} else {
				ways[w] = 0
			}
			return
		}
	}
}

// Flush empties the cache (context-switch pollution, machine reset).
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = 0
	}
	if c.plruBits != nil {
		for i := range c.plruBits {
			c.plruBits[i] = 0
		}
	}
}
