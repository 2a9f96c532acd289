package main

import (
	"ditto/internal/cpu"
	"ditto/internal/experiments"
	"ditto/internal/isa"
	"ditto/internal/loadgen"
	"ditto/internal/sim"
)

// sample is the simulated outcome of one variant's replay. Every field is a
// pure function of the seed and the program: two replays of the same code
// at the same seed must produce equal samples.
type sample struct {
	// Load generator accounting. Total* count from generator start (warmup
	// included), Win* from the warmup/measure boundary.
	TotalSent, TotalReceived, TotalFailed int
	WinSent, WinReceived, WinFailed       int
	LatCount                              int
	P50Ms, P99Ms                          float64
	SimSeconds                            float64 // measured window, virtual
	WarmupSimMs                           float64 // virtual time WarmupFor spent

	Ctr            cpu.Counters // server processes, measured window
	Events         uint64       // engine events fired on every machine, measured window
	PCHits, PCMiss uint64
	Fsyncs         uint64
	FsyncP99Ms     float64 // adapter/server machine, measured window
	DiskRead       uint64
	DiskWrite      uint64
	DiskBusy       sim.Time // summed over the server machines
	Machines       int      // server machines
	NetBytes       uint64   // server processes tx+rx
	Spans          int      // dtrace spans started in the measured window
	Observed       uint64   // body executions run in detail (traced runs only)
	Modeled        uint64   // body executions modeled by the sampler (traced runs only)
}

func (s sample) throughput() float64 { return float64(s.WinReceived) / s.SimSeconds }

// hostTimes is the host cost of one variant's replay, in seconds.
type hostTimes struct {
	setup, measure, teardown float64
}

// counterSnap holds the cumulative counters a window delta is taken from.
type counterSnap struct {
	ctr                cpu.Counters
	net, events        uint64
	hits, miss, fsyncs uint64
	diskR, diskW       uint64
	busy               sim.Time
	observed, modeled  uint64
}

func snapCounters(d *deployment) counterSnap {
	var s counterSnap
	for _, p := range d.procs {
		s.ctr.Add(p.Counters)
		s.net += p.NetTxBytes + p.NetRxBytes
		s.observed += p.ObservedBodies
		s.modeled += p.ModeledBodies
	}
	for _, m := range d.env.Cluster.Machines() {
		s.events += m.Eng.Fired()
	}
	for _, m := range d.machines {
		h, ms := m.Kernel.PageCacheStats()
		s.hits += h
		s.miss += ms
		s.fsyncs += m.Kernel.Fsyncs()
		c := m.Disk.Counters()
		s.diskR += c.ReadBytes
		s.diskW += c.WriteBytes
		s.busy += c.BusyTime
	}
	return s
}

// replayer drives one deployed variant through warmup and one measured
// window, exactly the sequence experiments.Measure, MeasureSN and MeasureFS
// follow, but with the host time of each step taken apart. The driver
// equivalence test pins it to those functions.
type replayer struct {
	load       experiments.Load
	win        experiments.Windows
	clientName string
	sampled    bool
	// observe attaches a no-op instruction observer to every server
	// process so the kernel counts detailed versus modeled body executions.
	// Traced runs only; their simulated statistics are checked equal to the
	// untraced run's.
	observe bool
	sp      *spans
}

// run deploys a variant with deploy, replays it and tears it down.
func (r replayer) run(deploy func() *deployment) (sample, hostTimes) {
	var (
		d  *deployment
		g  *loadgen.Generator
		s  sample
		ht hostTimes
	)
	ht.setup = elapsed(func() {
		d = deploy()
		if r.sampled {
			d.env.EnableSampling(r.load.Seed)
		}
		if r.observe {
			for _, p := range d.procs {
				p.ObserveInstrs(noopObserver)
			}
		}
		g = loadgen.New(loadgen.Config{
			Name: r.clientName, Machine: d.env.Client, Target: d.target, Port: d.port,
			Conns: r.load.Conns, QPS: r.load.QPS, Mix: r.load.Mix, Seed: r.load.Seed,
		})
		r.sp.do("loadgen.Start", g.Start)
		t0 := d.env.Now()
		r.sp.do("Env.WarmupFor", func() { d.env.WarmupFor(r.win.Warmup) })
		s.WarmupSimMs = (d.env.Now() - t0).Millis()
	})
	d.env.ArmSampling()
	warmSent, warmReceived, warmFailed := g.Sent(), g.Received(), g.Failed()
	g.Reset()
	for _, m := range d.machines {
		m.Kernel.FsyncLatency().Reset()
	}
	before := snapCounters(d)
	start := d.env.Now()
	ht.measure = elapsed(func() { r.sp.do("Env.RunFor", func() { d.env.RunFor(r.win.Measure) }) })
	s.SimSeconds = (d.env.Now() - start).Seconds()
	after := snapCounters(d)

	s.WinSent, s.WinReceived, s.WinFailed = g.Sent(), g.Received(), g.Failed()
	s.TotalSent, s.TotalReceived, s.TotalFailed = warmSent+s.WinSent, warmReceived+s.WinReceived, warmFailed+s.WinFailed
	lat := g.Latency()
	s.LatCount, s.P50Ms, s.P99Ms = lat.Count(), lat.Percentile(50), lat.Percentile(99)
	s.Ctr = deltaCounters(after.ctr, before.ctr)
	s.Events = after.events - before.events
	s.NetBytes = after.net - before.net
	s.PCHits, s.PCMiss = after.hits-before.hits, after.miss-before.miss
	s.Fsyncs = after.fsyncs - before.fsyncs
	s.FsyncP99Ms = d.machines[0].Kernel.FsyncLatency().Percentile(99)
	s.DiskRead, s.DiskWrite = after.diskR-before.diskR, after.diskW-before.diskW
	s.DiskBusy = after.busy - before.busy
	s.Machines = len(d.machines)
	s.Observed, s.Modeled = after.observed-before.observed, after.modeled-before.modeled
	if d.collector != nil {
		for _, sp := range d.collector.Spans() {
			if sp.Start >= start {
				s.Spans++
			}
		}
	}
	ht.teardown = elapsed(func() { r.sp.do("Env.Shutdown", d.env.Shutdown) })
	return s, ht
}

func noopObserver([]isa.Instr) {}

// deltaCounters subtracts cumulative counter snapshots.
func deltaCounters(now, base cpu.Counters) cpu.Counters {
	d := now
	d.Instrs -= base.Instrs
	d.KernelInstrs -= base.KernelInstrs
	d.Uops -= base.Uops
	d.Cycles -= base.Cycles
	d.Branches -= base.Branches
	d.Mispred -= base.Mispred
	d.L1iAcc -= base.L1iAcc
	d.L1iMiss -= base.L1iMiss
	d.L1dAcc -= base.L1dAcc
	d.L1dMiss -= base.L1dMiss
	d.L2Acc -= base.L2Acc
	d.L2Miss -= base.L2Miss
	d.L3Acc -= base.L3Acc
	d.L3Miss -= base.L3Miss
	d.MemAcc -= base.MemAcc
	d.LoadBytes -= base.LoadBytes
	d.StoreBytes -= base.StoreBytes
	d.Retiring -= base.Retiring
	d.Frontend -= base.Frontend
	d.BadSpec -= base.BadSpec
	d.Backend -= base.Backend
	return d
}
