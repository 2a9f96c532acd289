// Package platform assembles machines out of the hardware substrates —
// cores with private L1/L2 caches in front of a shared LLC, DRAM, a disk
// and a NIC, all managed by a kernel instance — and wires machines into
// clusters. It encodes the three server platforms of the paper's Table 1
// and exposes the deployment knobs the evaluation sweeps: core count,
// frequency scaling (Fig. 11), SMT sharing and private-cache stealing for
// hyperthread stressors (Fig. 10), and DRAM bandwidth contention.
package platform

import (
	"ditto/internal/cache"
	"ditto/internal/cpu"
	"ditto/internal/disk"
	"ditto/internal/kernel"
	"ditto/internal/mem"
	"ditto/internal/netsim"
	"ditto/internal/sim"
)

// Spec describes a server platform (one row of Table 1).
type Spec struct {
	Name        string
	Arch        cpu.Arch
	FreqGHz     float64
	Cores       int // usable cores across sockets
	L1iKB       int
	L1dKB       int
	L2KB        int
	L2Assoc     int
	LLCKB       int
	LLCAssoc    int
	MemLatNS    float64
	MemBWGBps   float64
	Disk        disk.Config
	NICGbps     float64
	PageCacheMB int
}

// A returns Platform A: dual Gold 6152 (Skylake), 1MB L2, 30.25MB LLC,
// DDR4-2666, SSD, 10Gbe.
func A() Spec {
	return Spec{Name: "A", Arch: cpu.Skylake, FreqGHz: 2.10, Cores: 44,
		L1iKB: 32, L1dKB: 32, L2KB: 1024, L2Assoc: 16,
		LLCKB: 30976, LLCAssoc: 11, MemLatNS: 85, MemBWGBps: 110,
		Disk: disk.SSDConfig(), NICGbps: 10, PageCacheMB: 8192}
}

// B returns Platform B: dual E5-2660 v3 (Haswell), 256KB L2, 25MB LLC,
// DDR4-2400, HDD, 1Gbe.
func B() Spec {
	return Spec{Name: "B", Arch: cpu.Haswell, FreqGHz: 2.60, Cores: 20,
		L1iKB: 32, L1dKB: 32, L2KB: 256, L2Assoc: 8,
		LLCKB: 25600, LLCAssoc: 20, MemLatNS: 95, MemBWGBps: 68,
		Disk: disk.HDDConfig(), NICGbps: 1, PageCacheMB: 8192}
}

// C returns Platform C: single E3-1240 v5 (Skylake client), 256KB L2,
// 8MB LLC, DDR4-2133, HDD, 1Gbe.
func C() Spec {
	return Spec{Name: "C", Arch: cpu.Skylake, FreqGHz: 3.50, Cores: 4,
		L1iKB: 32, L1dKB: 32, L2KB: 256, L2Assoc: 8,
		LLCKB: 8192, LLCAssoc: 16, MemLatNS: 90, MemBWGBps: 34,
		Disk: disk.HDDConfig(), NICGbps: 1, PageCacheMB: 4096}
}

// Specs returns the three evaluation platforms keyed by name.
func Specs() map[string]Spec { return map[string]Spec{"A": A(), "B": B(), "C": C()} }

// options carries deployment adjustments applied at machine build time.
type options struct {
	cores            int
	freqGHz          float64
	smtFactor        float64
	l1Scale, l2Scale float64
	llcScale         float64
	memBWDemand      float64
	coherenceInv     float64
	clientGrade      bool
}

// Option adjusts machine construction.
type Option func(*options)

// WithCoreCount limits the machine to n cores (Fig. 11 core scaling).
func WithCoreCount(n int) Option { return func(o *options) { o.cores = n } }

// WithFreqGHz overrides the core clock (Fig. 11 frequency scaling).
func WithFreqGHz(f float64) Option { return func(o *options) { o.freqGHz = f } }

// WithSMTFactor models a busy hyperthread sibling: effective issue width is
// scaled by f (0.5 for a fully competing sibling).
func WithSMTFactor(f float64) Option { return func(o *options) { o.smtFactor = f } }

// WithPrivateCacheScale shrinks effective private cache capacity, modeling
// an L1d/L2 stressor on the sibling hyperthread (Fig. 10).
func WithPrivateCacheScale(l1, l2 float64) Option {
	return func(o *options) { o.l1Scale, o.l2Scale = l1, l2 }
}

// WithLLCScale shrinks the effective shared LLC, an alternative to running
// a real LLC stressor process.
func WithLLCScale(f float64) Option { return func(o *options) { o.llcScale = f } }

// WithMemBWDemand adds background DRAM bandwidth demand in GB/s, inflating
// memory latency through the contention model.
func WithMemBWDemand(gbps float64) Option {
	return func(o *options) { o.memBWDemand = gbps }
}

// WithCoherenceInvRate overrides the probability that a Shared-flagged
// access finds its line invalidated (default 0.25).
func WithCoherenceInvRate(r float64) Option {
	return func(o *options) { o.coherenceInv = r }
}

// Machine is one assembled server.
type Machine struct {
	Name   string
	Spec   Spec
	Eng    *sim.Engine
	Kernel *kernel.Kernel
	Cores  []*cpu.Core
	LLC    *cache.Cache
	NIC    *netsim.NIC
	Disk   *disk.Device
	DRAM   mem.DRAM
	// Index is the machine's insertion position in its Cluster (0 until
	// added). It is the stable small integer that keys per-machine state in
	// shared structures — e.g. a tracing Collector's per-shard arms — so
	// identity never depends on pointers.
	Index int
}

// NewMachine builds a machine of the given spec.
func NewMachine(eng *sim.Engine, name string, spec Spec, opts ...Option) *Machine {
	o := options{
		cores:     spec.Cores,
		freqGHz:   spec.FreqGHz,
		smtFactor: 1, l1Scale: 1, l2Scale: 1, llcScale: 1,
		coherenceInv: 0.25,
	}
	for _, fn := range opts {
		fn(&o)
	}
	if o.cores <= 0 || o.cores > spec.Cores {
		o.cores = spec.Cores
	}

	dram := mem.DRAM{
		LatencyCycles: int(spec.MemLatNS * o.freqGHz),
		BandwidthGBps: spec.MemBWGBps,
	}
	memPenalty := dram.ContentionPenalty(o.memBWDemand)

	llcSize := scaleBytes(spec.LLCKB<<10, o.llcScale, spec.LLCAssoc)
	llcPolicy := cache.PLRU // recent Intel LLCs run pseudo-LRU variants
	if spec.LLCAssoc&(spec.LLCAssoc-1) != 0 {
		llcPolicy = cache.LRU // tree-PLRU needs power-of-two ways
	}
	llc := cache.New(cache.Config{Name: name + ".llc", Size: llcSize,
		Assoc: spec.LLCAssoc, Latency: 42, Policy: llcPolicy})

	m := &Machine{
		Name: name, Spec: spec, Eng: eng, LLC: llc,
		NIC:  netsim.NewNIC(eng, spec.NICGbps),
		Disk: disk.New(eng, spec.Disk),
		DRAM: dram,
	}
	for i := 0; i < o.cores; i++ {
		l1i := cache.New(cache.Config{Name: "l1i", Size: scaleBytes(spec.L1iKB<<10, o.l1Scale, 8),
			Assoc: 8, Latency: 4, Policy: cache.LRU})
		l1d := cache.New(cache.Config{Name: "l1d", Size: scaleBytes(spec.L1dKB<<10, o.l1Scale, 8),
			Assoc: 8, Latency: 4, Policy: cache.LRU, Prefetch: true})
		l2i := cache.New(cache.Config{Name: "l2", Size: scaleBytes(spec.L2KB<<10, o.l2Scale, spec.L2Assoc),
			Assoc: spec.L2Assoc, Latency: 12, Policy: cache.LRU})
		l2d := l2i // unified L2 shared between the two paths
		core := cpu.NewCore(cpu.Config{
			Arch:    spec.Arch,
			FreqGHz: o.freqGHz,
			ICache: &cache.Hierarchy{Caches: [3]*cache.Cache{l1i, l2i, llc},
				MemLatency: dram.LatencyCycles, MemPenalty: memPenalty},
			DCache: &cache.Hierarchy{Caches: [3]*cache.Cache{l1d, l2d, llc},
				MemLatency: dram.LatencyCycles, MemPenalty: memPenalty},
			CoherenceInvRate: o.coherenceInv,
			SMTFactor:        o.smtFactor,
		})
		m.Cores = append(m.Cores, core)
	}
	m.Kernel = kernel.New(eng, name, kernel.Resources{
		Cores:          m.Cores,
		Disk:           m.Disk,
		NIC:            m.NIC,
		PageCachePages: spec.PageCacheMB << 20 / 4096,
	})
	return m
}

// SetCPUThrottle scales every core's effective clock (1 = full speed,
// 0.5 = half). A fault plane uses it to model a slow replica: the machine
// keeps executing the same instruction streams, each just takes longer.
func (m *Machine) SetCPUThrottle(f float64) {
	for _, c := range m.Cores {
		c.SetThrottle(f)
	}
}

// scaleBytes scales a capacity while keeping it a valid multiple of the
// associativity times the line size.
func scaleBytes(bytes int, frac float64, assoc int) int {
	if frac <= 0 {
		frac = 1
	}
	v := int(float64(bytes) * frac)
	quantum := assoc * cache.LineBytes
	v = v / quantum * quantum
	if v < quantum {
		v = quantum
	}
	return v
}

// Cluster connects machines with a uniform-RTT fabric and implements
// kernel.Fabric.
type Cluster struct {
	RTT      sim.Time
	machines []*Machine
	byKernel map[*kernel.Kernel]*Machine
}

// NewCluster builds an empty cluster with the given inter-machine RTT.
func NewCluster(rtt sim.Time) *Cluster {
	return &Cluster{RTT: rtt, byKernel: map[*kernel.Kernel]*Machine{}}
}

// Add registers a machine and wires its kernel into the fabric.
func (c *Cluster) Add(m *Machine) {
	m.Index = len(c.machines)
	c.machines = append(c.machines, m)
	c.byKernel[m.Kernel] = m
	m.Kernel.SetFabric(c)
}

// Lookahead returns the conservative-parallel horizon this fabric supports:
// the minimum one-way delay between distinct machines. Every cross-machine
// interaction pays at least RTT/2 of propagation (loopback never leaves a
// machine's own shard), so shards may safely run this far ahead of each
// other. Fault planes can only add delay (LinkFault.ExtraOne ≥ 0), never
// shrink it below this commitment.
func (c *Cluster) Lookahead() sim.Time { return c.RTT / 2 }

// Machines returns the registered machines in insertion order.
func (c *Cluster) Machines() []*Machine { return c.machines }

// Path implements kernel.Fabric.
func (c *Cluster) Path(src, dst *kernel.Kernel) netsim.Path {
	if src == dst {
		return netsim.Path{Loopback: true}
	}
	sm, dm := c.byKernel[src], c.byKernel[dst]
	if sm == nil || dm == nil {
		return netsim.Path{Loopback: true}
	}
	return netsim.Path{Src: sm.NIC, Dst: dm.NIC, RTT: c.RTT}
}
