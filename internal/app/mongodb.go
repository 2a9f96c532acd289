package app

import (
	"ditto/internal/kernel"
	"ditto/internal/platform"
	"ditto/internal/stats"
)

// MongoDB models the document store of §6.1.2: a blocking
// thread-per-connection network model (its thread count scales with
// connections, as the paper notes), a B-tree index walk, and a pread of the
// record region from a 40GB dataset driven by a uniform YCSB workload —
// which misses the page cache most of the time and makes the service
// disk-bound.
type MongoDB struct {
	Base
	DatasetBytes int64
	ReadBytes    int
	RespBytes    int

	parse, btree, serialize *Phase
	offRng                  *stats.Rand
	file                    *kernel.File
	streams                 *StreamCache
}

// MongoDB stream-cache kinds: the pre-I/O segment (parse + B-tree walk) and
// the post-I/O serialization.
const (
	mongoPre  = 0
	mongoPost = 1
)

// NewMongoDB builds a MongoDB instance with its 40GB dataset.
func NewMongoDB(m *platform.Machine, port int, seed int64) *MongoDB {
	db := &MongoDB{Base: NewBase("mongodb", m, port, seed),
		DatasetBytes: 40 << 30, ReadBytes: 40 << 10, RespBytes: 4096,
		offRng: stats.NewRand(seed + 77)}
	code := db.P.MemBase
	data := db.P.MemBase + 1<<30
	db.parse = NewPhase(PhaseSpec{
		Name: "bson-parse", MeanInstrs: 1400, JitterPct: 0.25, FootprintBytes: 40 << 10,
		Weights:    ClassWeights{Load: 0.25, Store: 0.1, ALU: 0.52, Mul: 0.02, SIMD: 0.06, CRC: 0.05},
		BranchFrac: 0.16,
		Branches: []BranchMN{{M: 1, N: 1, Weight: 0.3}, {M: 1, N: 3, Weight: 0.4},
			{M: 3, N: 5, Weight: 0.3}},
		WorkingSets: []WorkingSet{{Bytes: 32 << 10, Frac: 0.7}, {Bytes: 1 << 20, Frac: 0.3}},
		RegularFrac: 0.45, DepChain: 2,
	}, code, data, seed)
	db.btree = NewPhase(PhaseSpec{
		Name: "btree-walk", MeanInstrs: 2400, JitterPct: 0.3, FootprintBytes: 48 << 10,
		Weights:    ClassWeights{Load: 0.34, Store: 0.06, ALU: 0.48, Mul: 0.03, FP: 0.02, SIMD: 0.04, Lock: 0.03},
		BranchFrac: 0.14,
		Branches: []BranchMN{{M: 1, N: 1, Weight: 0.45}, {M: 2, N: 3, Weight: 0.35},
			{M: 4, N: 6, Weight: 0.2}},
		WorkingSets: []WorkingSet{
			{Bytes: 256 << 10, Frac: 0.4},  // upper index levels
			{Bytes: 8 << 20, Frac: 0.35},   // mid levels
			{Bytes: 192 << 20, Frac: 0.25}, // leaf cache
		},
		RegularFrac: 0.15, PointerFrac: 0.3, SharedFrac: 0.08, DepChain: 2,
	}, code+1<<20, data+1<<28, seed+1)
	db.serialize = NewPhase(PhaseSpec{
		Name: "serialize", MeanInstrs: 800, JitterPct: 0.15, FootprintBytes: 20 << 10,
		Weights:     ClassWeights{Load: 0.2, Store: 0.16, ALU: 0.5, SIMD: 0.04, Rep: 0.1},
		BranchFrac:  0.1,
		WorkingSets: []WorkingSet{{Bytes: 512 << 10, Frac: 1}},
		RegularFrac: 0.8, DepChain: 2, RepBytes: 4096,
	}, code+2<<20, data+2<<29, seed+2)
	db.streams = NewPhaseChainCache(map[int][]*Phase{
		mongoPre:  {db.parse, db.btree},
		mongoPost: {db.serialize},
	})
	return db
}

// Start creates the dataset file and launches the acceptor.
func (db *MongoDB) Start() {
	db.file = db.M.Kernel.CreateFile("/data/db/collection-0.wt", db.DatasetBytes)
	db.P.Spawn("acceptor", func(th *kernel.Thread) {
		l := th.Listen(db.ListenPort)
		ConnPerThreadLoop(th, l, db.handle)
	})
}

// handle serves one YCSB read: parse, index walk, pread at a uniformly
// random offset, serialize, respond.
func (db *MongoDB) handle(th *kernel.Thread, conn *kernel.Endpoint, msg kernel.Msg) {
	th.RunTrace(db.streams.Next(mongoPre))

	maxOff := db.DatasetBytes - int64(db.ReadBytes)
	off := db.offRng.Int63n(maxOff/kernel.PageBytes) * kernel.PageBytes
	fd := th.Open(db.file.Name)
	th.Pread(fd, db.ReadBytes, off)
	th.CloseFD(fd)

	th.RunTrace(db.streams.Next(mongoPost))
	echo(th, conn, msg, db.RespBytes)
}
