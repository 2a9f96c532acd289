// Package fault implements deterministic chaos planes: declarative,
// schedulable fault scenarios against a deployed application — tier crashes
// and restarts, network partitions between tier groups, per-link packet loss
// and latency spikes, and slow-replica CPU throttling. Every action fires as
// a simulation-engine event at a scenario-fixed virtual time, and all
// randomness (per-link loss streams) derives from the cell's seed, so a
// scenario replays byte-identically at any -parallel width and across
// repeated runs.
package fault

import (
	"ditto/internal/app"
	"ditto/internal/kernel"
	"ditto/internal/netsim"
	"ditto/internal/platform"
	"ditto/internal/sim"
)

// Link is one directed machine pair with its mutable fault cell.
type Link struct {
	Src, Dst *platform.Machine
	Fault    *netsim.LinkFault
}

// Fabric wraps a cluster's fabric so every directed link among a managed set
// of machines carries a seeded LinkFault cell a plane can flip mid-run.
// Paths touching unmanaged machines (the client) stay fault-free.
type Fabric struct {
	inner  kernel.Fabric
	byPair map[[2]*kernel.Kernel]*netsim.LinkFault
	links  []Link
}

// Interpose builds fault cells for every directed pair of the given machines
// and re-wires their kernels through the wrapping fabric. Per-link seeds
// derive from machine indices — never pointers — so concurrent cells with
// the same seed produce identical loss streams.
func Interpose(cl *platform.Cluster, machines []*platform.Machine, seed uint64) *Fabric {
	f := &Fabric{inner: cl, byPair: map[[2]*kernel.Kernel]*netsim.LinkFault{}}
	for i, a := range machines {
		for j, b := range machines {
			if i == j {
				continue
			}
			lf := netsim.NewLinkFault(seed ^ (uint64(i+1)<<20 | uint64(j+1)))
			f.byPair[[2]*kernel.Kernel{a.Kernel, b.Kernel}] = lf
			f.links = append(f.links, Link{Src: a, Dst: b, Fault: lf})
		}
	}
	for _, m := range machines {
		m.Kernel.SetFabric(f)
	}
	return f
}

// Path implements kernel.Fabric, attaching the link's fault cell.
func (f *Fabric) Path(src, dst *kernel.Kernel) netsim.Path {
	p := f.inner.Path(src, dst)
	if lf := f.byPair[[2]*kernel.Kernel{src, dst}]; lf != nil {
		p.Fault = lf
	}
	return p
}

// Links returns the managed directed links in deterministic order.
func (f *Fabric) Links() []Link { return f.links }

// Dropped sums messages blackholed or lost across all managed links.
func (f *Fabric) Dropped() uint64 {
	var n uint64
	for _, l := range f.links {
		n += l.Fault.Dropped
	}
	return n
}

// Op is one fault action kind.
type Op int

const (
	// OpCrash kills the named tiers' processes.
	OpCrash Op = iota
	// OpRestart relaunches crashed tiers.
	OpRestart
	// OpPartition blackholes both directions between the machines hosting
	// Tiers and those hosting TiersB. Partitions are machine-granular:
	// co-located tiers are cut together, as a real switch failure would.
	OpPartition
	// OpHeal clears link faults (all links when no tiers are named, else
	// links touching the named tiers' machines) and restores full CPU speed
	// on the affected machines.
	OpHeal
	// OpLoss sets per-message loss probability on links touching the named
	// tiers' machines (all managed links when none are named).
	OpLoss
	// OpDelay adds one-way latency on links touching the named tiers'
	// machines (all managed links when none are named).
	OpDelay
	// OpSlowCPU throttles the named tiers' machines to Throttle of full
	// clock — the slow-replica fault.
	OpSlowCPU
)

// Event is one scheduled fault action. Targets are logical tier names, so
// the same scenario addresses an original deployment and its clone.
type Event struct {
	At       sim.Time
	Op       Op
	Tiers    []string // primary targets (crash/restart/slowcpu/link side A)
	TiersB   []string // partition far side
	Loss     float64  // OpLoss probability
	Delay    sim.Time // OpDelay added one-way latency
	Throttle float64  // OpSlowCPU clock fraction (0,1]
}

// Scenario is a named, declarative fault schedule.
type Scenario struct {
	Name   string
	Events []Event
}

// Plane binds scenarios to one cell's fabric and tier set.
type Plane struct {
	fabric *Fabric
	tiers  map[string]*app.Tier
}

// NewPlane builds a plane. fabric may be nil when the scenario uses no link
// faults; tiers maps logical names to deployed tiers. Every fault action is
// scheduled on the engine of the machine whose state it mutates, so the
// plane works unchanged under sharded execution.
func NewPlane(fabric *Fabric, tiers map[string]*app.Tier) *Plane {
	return &Plane{fabric: fabric, tiers: tiers}
}

// Schedule registers every event of the scenario. Each event is decomposed
// at schedule time into per-owner actions — a tier crash fires on the tier's
// machine, a link fault on the link's source machine (the side that consults
// the fault cell at send time) — so under sharded execution every mutation
// happens on the shard that owns the state. Scheduling happens while the
// world is idle, so no lookahead constraint applies.
func (p *Plane) Schedule(sc Scenario) {
	for _, ev := range sc.Events {
		switch ev.Op {
		case OpCrash, OpRestart:
			op := ev.Op
			for _, name := range ev.Tiers {
				t := p.tiers[name]
				if t == nil {
					continue
				}
				t.M.Eng.Schedule(ev.At, func() {
					if op == OpCrash {
						t.Crash()
					} else {
						t.Restart()
					}
				})
			}
		case OpPartition:
			a, b := p.machinesOf(ev.Tiers), p.machinesOf(ev.TiersB)
			for _, l := range p.managedLinks() {
				if (a[l.Src] && b[l.Dst]) || (b[l.Src] && a[l.Dst]) {
					p.scheduleLink(ev.At, l, func(f *netsim.LinkFault) { f.Down = true })
				}
			}
		case OpHeal:
			touch := p.machinesOf(append(append([]string(nil), ev.Tiers...), ev.TiersB...))
			for _, l := range p.managedLinks() {
				if len(touch) == 0 || touch[l.Src] || touch[l.Dst] {
					p.scheduleLink(ev.At, l, (*netsim.LinkFault).Clear)
				}
			}
			for _, m := range p.machineList(touch) {
				m := m
				m.Eng.Schedule(ev.At, func() { m.SetCPUThrottle(1) })
			}
		case OpLoss, OpDelay:
			touch := p.machinesOf(ev.Tiers)
			for _, l := range p.managedLinks() {
				if len(touch) == 0 || touch[l.Src] || touch[l.Dst] {
					if ev.Op == OpLoss {
						loss := ev.Loss
						p.scheduleLink(ev.At, l, func(f *netsim.LinkFault) { f.LossProb = loss })
					} else {
						d := ev.Delay
						p.scheduleLink(ev.At, l, func(f *netsim.LinkFault) { f.ExtraOne = d })
					}
				}
			}
		case OpSlowCPU:
			thr := ev.Throttle
			for _, m := range p.machineList(p.machinesOf(ev.Tiers)) {
				m := m
				m.Eng.Schedule(ev.At, func() { m.SetCPUThrottle(thr) })
			}
		}
	}
}

// scheduleLink arms one link-fault mutation on the link's owning timeline:
// the source machine's engine, because the sender is the side that reads the
// fault cell inside netsim.Send.
func (p *Plane) scheduleLink(at sim.Time, l Link, fn func(*netsim.LinkFault)) {
	f := l.Fault
	l.Src.Eng.Schedule(at, func() { fn(f) })
}

// machineList resolves a machine set to a deterministic slice: all tiers'
// machines (in tier-name order) when the set is empty, else the set filtered
// through the same ordering. Fault actions must not iterate Go maps.
func (p *Plane) machineList(set map[*platform.Machine]bool) []*platform.Machine {
	var out []*platform.Machine
	seen := map[*platform.Machine]bool{}
	for _, t := range p.tierList() {
		m := t.M
		if seen[m] || (len(set) > 0 && !set[m]) {
			continue
		}
		seen[m] = true
		out = append(out, m)
	}
	return out
}

// managedLinks returns the fabric's links (empty without a fabric).
func (p *Plane) managedLinks() []Link {
	if p.fabric == nil {
		return nil
	}
	return p.fabric.links
}

// machinesOf resolves tier names to the set of machines hosting them.
// Unknown names are skipped, so scenarios survive topology variants.
func (p *Plane) machinesOf(names []string) map[*platform.Machine]bool {
	out := map[*platform.Machine]bool{}
	for _, name := range names {
		if t := p.tiers[name]; t != nil {
			out[t.M] = true
		}
	}
	return out
}

// tierList returns the plane's tiers in deterministic name order.
func (p *Plane) tierList() []*app.Tier {
	names := make([]string, 0, len(p.tiers))
	for name := range p.tiers {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	out := make([]*app.Tier, len(names))
	for i, name := range names {
		out[i] = p.tiers[name]
	}
	return out
}
