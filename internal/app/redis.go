package app

import (
	"ditto/internal/kernel"
	"ditto/internal/platform"
)

// Redis models the single-threaded in-memory store of §6.1.2: one event
// loop, a chained dictionary lookup with heavy pointer chasing over a 100K
// record dataset, and no shared-data or lock traffic (single-threaded, as
// the paper configures it with persistence disabled).
type Redis struct {
	Base
	ValueBytes int

	parse, dict, respond, insert *Phase
	streams                      *StreamCache
}

// Request kinds Redis understands.
const (
	RedisGet = 0
	RedisSet = 1
)

// NewRedis builds a Redis instance.
func NewRedis(m *platform.Machine, port int, seed int64) *Redis {
	r := &Redis{Base: NewBase("redis", m, port, seed), ValueBytes: 1024}
	datasetBytes := 100_000 * (r.ValueBytes + 96)
	code := r.P.MemBase
	data := r.P.MemBase + 1<<30
	r.parse = NewPhase(PhaseSpec{
		Name: "resp-parse", MeanInstrs: 380, JitterPct: 0.12, FootprintBytes: 10 << 10,
		Weights:     ClassWeights{Load: 0.22, Store: 0.07, ALU: 0.6, SIMD: 0.06, CRC: 0.05},
		BranchFrac:  0.18,
		Branches:    []BranchMN{{M: 1, N: 1, Weight: 0.4}, {M: 1, N: 3, Weight: 0.35}, {M: 3, N: 4, Weight: 0.25}},
		WorkingSets: []WorkingSet{{Bytes: 8 << 10, Frac: 1}},
		RegularFrac: 0.5, DepChain: 3,
	}, code, data, seed)
	r.dict = NewPhase(PhaseSpec{
		Name: "dict-lookup", MeanInstrs: 720, JitterPct: 0.2, FootprintBytes: 16 << 10,
		Weights:    ClassWeights{Load: 0.34, Store: 0.07, ALU: 0.5, Mul: 0.02, SIMD: 0.04, CRC: 0.03},
		BranchFrac: 0.13,
		Branches:   []BranchMN{{M: 1, N: 1, Weight: 0.4}, {M: 2, N: 3, Weight: 0.4}, {M: 4, N: 5, Weight: 0.2}},
		WorkingSets: []WorkingSet{
			{Bytes: 16 << 10, Frac: 0.35},     // hot dict metadata
			{Bytes: 2 << 20, Frac: 0.3},       // bucket array
			{Bytes: datasetBytes, Frac: 0.35}, // entries + values
		},
		RegularFrac: 0.2, PointerFrac: 0.28, DepChain: 2,
	}, code+1<<20, data+1<<27, seed+1)
	r.respond = NewPhase(PhaseSpec{
		Name: "respond", MeanInstrs: 220, JitterPct: 0.1, FootprintBytes: 6 << 10,
		Weights:     ClassWeights{Load: 0.16, Store: 0.14, ALU: 0.58, Rep: 0.12},
		BranchFrac:  0.08,
		WorkingSets: []WorkingSet{{Bytes: datasetBytes, Frac: 1}},
		RegularFrac: 0.9, DepChain: 2, RepBytes: r.ValueBytes,
	}, code+2<<20, data+1<<28, seed+2)
	r.insert = NewPhase(PhaseSpec{
		Name: "dict-insert", MeanInstrs: 520, JitterPct: 0.2, FootprintBytes: 12 << 10,
		Weights:    ClassWeights{Load: 0.22, Store: 0.24, ALU: 0.42, Mul: 0.02, CRC: 0.04, Rep: 0.06},
		BranchFrac: 0.12,
		Branches:   []BranchMN{{M: 1, N: 2, Weight: 0.55}, {M: 3, N: 4, Weight: 0.45}},
		WorkingSets: []WorkingSet{
			{Bytes: 2 << 20, Frac: 0.4},
			{Bytes: datasetBytes, Frac: 0.6},
		},
		RegularFrac: 0.45, PointerFrac: 0.15, DepChain: 2, RepBytes: r.ValueBytes,
	}, code+3<<20, data+3<<27, seed+3)
	r.streams = NewPhaseChainCache(map[int][]*Phase{
		RedisGet: {r.parse, r.dict, r.respond},
		RedisSet: {r.parse, r.dict, r.insert},
	})
	return r
}

// Start launches the single event-loop thread.
func (r *Redis) Start() {
	r.P.Spawn("eventloop", func(th *kernel.Thread) {
		l := th.Listen(r.ListenPort)
		EventLoop(th, l, r.handle)
	})
}

// handle serves one command: GETs do parse → dict walk → reply copy; SETs
// do parse → dict walk → entry insert → short "+OK".
func (r *Redis) handle(th *kernel.Thread, conn *kernel.Endpoint, msg kernel.Msg) {
	kind := RedisGet
	if req, ok := msg.Payload.(*Request); ok {
		kind = req.Kind
	}
	th.RunTrace(r.streams.Next(kind))
	if kind == RedisSet {
		echo(th, conn, msg, 16) // "+OK"
		return
	}
	echo(th, conn, msg, r.ValueBytes+38)
}
