package app

import (
	"ditto/internal/kernel"
	"ditto/internal/platform"
)

// Memcached models the in-memory key-value cache of §6.1.2: an
// I/O-multiplexing network model with one dispatcher and a fixed pool of
// worker threads (built with four workers, as the paper deploys it), a hash
// lookup over a 10K-item × 4KB store, and a value copy on the response
// path. Multi-threading shows up as lock-prefixed ops and shared-data
// accesses in the body.
type Memcached struct {
	Base
	Workers    int
	ValueBytes int

	parse, lookup, respond []*Phase // per worker
	insert                 []*Phase // per worker, SET path
	streams                []*StreamCache
}

// Request kinds Memcached understands.
const (
	MemcachedGet = 0
	MemcachedSet = 1
)

// NewMemcached builds a Memcached instance on m with the paper's four
// worker threads.
func NewMemcached(m *platform.Machine, port int, seed int64) *Memcached {
	return NewMemcachedN(m, port, 4, seed)
}

// NewMemcachedN builds a Memcached instance with a custom worker-pool size
// (the core-scaling study of Fig. 11 deploys a wider pool).
func NewMemcachedN(m *platform.Machine, port, workers int, seed int64) *Memcached {
	mc := &Memcached{Base: NewBase("memcached", m, port, seed), Workers: workers, ValueBytes: 4096}
	storeBytes := 10_000 * (mc.ValueBytes + 128) // items + headers
	for w := 0; w < mc.Workers; w++ {
		code := mc.P.MemBase + uint64(w)<<24
		data := mc.P.MemBase + 1<<30
		s := seed + int64(w)*101
		mc.parse = append(mc.parse, NewPhase(PhaseSpec{
			Name: "parse", MeanInstrs: 420, JitterPct: 0.15, FootprintBytes: 8 << 10,
			Weights:     ClassWeights{Load: 0.22, Store: 0.06, ALU: 0.62, SIMD: 0.05, CRC: 0.05},
			BranchFrac:  0.17,
			Branches:    []BranchMN{{M: 1, N: 2, Weight: 0.5}, {M: 2, N: 3, Weight: 0.3}, {M: 4, N: 5, Weight: 0.2}},
			WorkingSets: []WorkingSet{{Bytes: 8 << 10, Frac: 1}},
			RegularFrac: 0.5, DepChain: 3,
		}, code, data, s))
		mc.lookup = append(mc.lookup, NewPhase(PhaseSpec{
			Name: "lookup", MeanInstrs: 950, JitterPct: 0.2, FootprintBytes: 20 << 10,
			Weights:    ClassWeights{Load: 0.30, Store: 0.08, ALU: 0.50, Mul: 0.02, SIMD: 0.04, Lock: 0.015, CRC: 0.045},
			BranchFrac: 0.12,
			Branches:   []BranchMN{{M: 1, N: 1, Weight: 0.35}, {M: 1, N: 4, Weight: 0.35}, {M: 3, N: 4, Weight: 0.3}},
			WorkingSets: []WorkingSet{
				{Bytes: 64 << 10, Frac: 0.35},  // hot metadata
				{Bytes: 4 << 20, Frac: 0.35},   // hash table
				{Bytes: storeBytes, Frac: 0.3}, // item store
			},
			RegularFrac: 0.25, PointerFrac: 0.18, SharedFrac: 0.12, DepChain: 2,
		}, code+1<<20, data+1<<20, s+1))
		mc.insert = append(mc.insert, NewPhase(PhaseSpec{
			Name: "insert", MeanInstrs: 700, JitterPct: 0.2, FootprintBytes: 14 << 10,
			Weights:    ClassWeights{Load: 0.2, Store: 0.22, ALU: 0.44, Lock: 0.04, CRC: 0.04, Rep: 0.06},
			BranchFrac: 0.11,
			Branches:   []BranchMN{{M: 1, N: 2, Weight: 0.5}, {M: 3, N: 4, Weight: 0.5}},
			WorkingSets: []WorkingSet{
				{Bytes: 4 << 20, Frac: 0.4},
				{Bytes: storeBytes, Frac: 0.6},
			},
			RegularFrac: 0.5, SharedFrac: 0.2, DepChain: 2, RepBytes: mc.ValueBytes,
		}, code+3<<20, data+3<<20, s+3))
		mc.respond = append(mc.respond, NewPhase(PhaseSpec{
			Name: "respond", MeanInstrs: 180, JitterPct: 0.1, FootprintBytes: 4 << 10,
			Weights:     ClassWeights{Load: 0.15, Store: 0.15, ALU: 0.58, Rep: 0.12},
			BranchFrac:  0.1,
			WorkingSets: []WorkingSet{{Bytes: storeBytes, Frac: 1}},
			RegularFrac: 0.9, DepChain: 2, RepBytes: mc.ValueBytes,
		}, code+2<<20, data+2<<20, s+2))
		mc.streams = append(mc.streams, NewPhaseChainCache(map[int][]*Phase{
			MemcachedGet: {mc.parse[w], mc.lookup[w], mc.respond[w]},
			MemcachedSet: {mc.parse[w], mc.lookup[w], mc.insert[w]},
		}))
	}
	return mc
}

// Start launches the dispatcher and worker threads (see WorkerPool).
func (mc *Memcached) Start() {
	WorkerPool(mc.P, mc.ListenPort, mc.Workers, mc.handle)
}

// handle serves one request: GETs do parse → hash lookup → value copy →
// respond; SETs do parse → lookup → item insert (store-heavy, LRU-list
// locking) → short acknowledgement.
func (mc *Memcached) handle(th *kernel.Thread, w int, conn *kernel.Endpoint, msg kernel.Msg) {
	kind := MemcachedGet
	if req, ok := msg.Payload.(*Request); ok {
		kind = req.Kind
	}
	th.RunTrace(mc.streams[w].Next(kind))
	if kind == MemcachedSet {
		echo(th, conn, msg, 32) // "STORED"
		return
	}
	echo(th, conn, msg, mc.ValueBytes+66)
}
