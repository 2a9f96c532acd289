// Package cpu implements the out-of-order core model that executes
// instruction streams for both the original applications and the Ditto
// clones. It is an interval/scoreboard model rather than a cycle-accurate
// pipeline: an in-order frontend with an L1i path and a branch predictor
// dispatches uops at the machine width, a register ready-time scoreboard
// plus per-port occupancy captures ILP, MLP and port contention, and a
// reorder-buffer ring bounds how far execution can run ahead. The model
// produces the counter set the paper validates against: IPC, per-level
// cache miss rates, branch mispredictions, and the top-down cycle breakdown
// (retiring / frontend / bad speculation / backend) of Fig. 2 and Fig. 8.
package cpu

import (
	"ditto/internal/branch"
	"ditto/internal/cache"
	"ditto/internal/sim"
)

// Arch describes platform-independent core parameters (per CPU family,
// Table 1: Skylake vs Haswell).
type Arch struct {
	Name              string
	IssueWidth        int // fused-domain uops dispatched per cycle
	ROB               int // reorder-buffer entries
	MispredictPenalty int // cycles lost per branch mispredict
	PredictorEntries  int // predictor table entries per component
}

// Skylake and Haswell are the two core generations in the paper's cluster.
var (
	Skylake = Arch{Name: "skylake", IssueWidth: 4, ROB: 224, MispredictPenalty: 16, PredictorEntries: 8192}
	Haswell = Arch{Name: "haswell", IssueWidth: 3, ROB: 192, MispredictPenalty: 18, PredictorEntries: 4096}
)

// Config assembles one logical core: its architecture, clock, cache paths,
// and environment-dependent knobs set by the platform.
type Config struct {
	Arch    Arch
	FreqGHz float64
	ICache  *cache.Hierarchy
	DCache  *cache.Hierarchy
	// CoherenceInvRate is the probability that an access flagged Shared
	// finds its line invalidated by another core (§4.4.4 coherence misses).
	CoherenceInvRate float64
	// SMTFactor scales effective issue width for hyperthread sharing:
	// 1.0 = core alone, 0.5 = competing sibling thread (Fig. 10 HT).
	SMTFactor float64
}

// Counters is the performance-counter set a run accumulates — the model's
// equivalent of the perf/VTune counters Ditto reads.
type Counters struct {
	Instrs       uint64
	KernelInstrs uint64
	Uops         uint64
	Cycles       float64

	Branches uint64
	Mispred  uint64

	L1iAcc, L1iMiss uint64
	L1dAcc, L1dMiss uint64
	L2Acc, L2Miss   uint64
	L3Acc, L3Miss   uint64
	MemAcc          uint64

	LoadBytes, StoreBytes uint64

	// Top-down cycle attribution (Fig. 8).
	Retiring float64
	Frontend float64
	BadSpec  float64
	Backend  float64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Instrs += o.Instrs
	c.KernelInstrs += o.KernelInstrs
	c.Uops += o.Uops
	c.Cycles += o.Cycles
	c.Branches += o.Branches
	c.Mispred += o.Mispred
	c.L1iAcc += o.L1iAcc
	c.L1iMiss += o.L1iMiss
	c.L1dAcc += o.L1dAcc
	c.L1dMiss += o.L1dMiss
	c.L2Acc += o.L2Acc
	c.L2Miss += o.L2Miss
	c.L3Acc += o.L3Acc
	c.L3Miss += o.L3Miss
	c.MemAcc += o.MemAcc
	c.LoadBytes += o.LoadBytes
	c.StoreBytes += o.StoreBytes
	c.Retiring += o.Retiring
	c.Frontend += o.Frontend
	c.BadSpec += o.BadSpec
	c.Backend += o.Backend
}

// IPC reports instructions per cycle.
func (c *Counters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instrs) / c.Cycles
}

// CPI reports cycles per instruction.
func (c *Counters) CPI() float64 {
	if c.Instrs == 0 {
		return 0
	}
	return c.Cycles / float64(c.Instrs)
}

func rate(miss, acc uint64) float64 {
	if acc == 0 {
		return 0
	}
	return float64(miss) / float64(acc)
}

// L1iMissRate reports L1 instruction-cache misses per L1i access.
func (c *Counters) L1iMissRate() float64 { return rate(c.L1iMiss, c.L1iAcc) }

// L1dMissRate reports L1 data-cache misses per L1d access.
func (c *Counters) L1dMissRate() float64 { return rate(c.L1dMiss, c.L1dAcc) }

// L2MissRate reports L2 misses per L2 access (instruction + data).
func (c *Counters) L2MissRate() float64 { return rate(c.L2Miss, c.L2Acc) }

// L3MissRate reports LLC misses per LLC access.
func (c *Counters) L3MissRate() float64 { return rate(c.L3Miss, c.L3Acc) }

// BranchMissRate reports mispredictions per conditional branch.
func (c *Counters) BranchMissRate() float64 { return rate(c.Mispred, c.Branches) }

// MPKI reports branch mispredictions per kilo-instruction.
func (c *Counters) MPKI() float64 {
	if c.Instrs == 0 {
		return 0
	}
	return float64(c.Mispred) / float64(c.Instrs) * 1000
}

// KernelShare reports the fraction of instructions executed in kernel mode.
func (c *Counters) KernelShare() float64 {
	if c.Instrs == 0 {
		return 0
	}
	return float64(c.KernelInstrs) / float64(c.Instrs)
}

// Core is one logical execution context. It owns warm micro-architectural
// state (caches via Config, predictor, coherence RNG) that persists across
// ExecuteTrace calls, which is what makes consecutive bursts of the same
// thread cheaper than cold starts.
type Core struct {
	cfg  Config
	pred *branch.Predictor

	robRing   []float64
	lastFetch uint64
	haveFetch bool
	rng       uint64
	// throttle scales the effective clock for cycle→time conversion:
	// 1 = full speed, 0.5 = half speed. A fault plane's slow-replica
	// scenario sets it mid-run; cycle counts are unaffected, only how long
	// they take, which is exactly what frequency throttling does.
	throttle float64
}

// NewCore builds a core from cfg.
func NewCore(cfg Config) *Core {
	if cfg.SMTFactor == 0 {
		cfg.SMTFactor = 1
	}
	if cfg.FreqGHz == 0 {
		cfg.FreqGHz = 2.0
	}
	c := &Core{
		cfg:      cfg,
		pred:     branch.NewPredictor(cfg.Arch.PredictorEntries),
		robRing:  make([]float64, cfg.Arch.ROB),
		rng:      0x9E3779B97F4A7C15,
		throttle: 1,
	}
	return c
}

// SetThrottle scales the core's effective clock: 1 restores full speed,
// 0.5 halves it. Factors outside (0, 1] are clamped to 1.
func (c *Core) SetThrottle(f float64) {
	if f <= 0 || f > 1 {
		f = 1
	}
	c.throttle = f
}

// Throttle reports the current clock-throttle factor.
func (c *Core) Throttle() float64 { return c.throttle }

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// SetCoherenceInvRate adjusts the shared-access invalidation probability
// (set by the platform from the thread topology).
func (c *Core) SetCoherenceInvRate(r float64) { c.cfg.CoherenceInvRate = r }

// SetSMTFactor adjusts the hyperthread-sharing factor.
func (c *Core) SetSMTFactor(f float64) {
	if f <= 0 {
		f = 1
	}
	c.cfg.SMTFactor = f
}

// ContextSwitch models the micro-architectural cost of switching to a
// different thread: private cache pollution and predictor perturbation.
// Each distinct private cache is flushed once: a unified L2 sits in both
// hierarchies, and clearing it a second time would change nothing.
func (c *Core) ContextSwitch() {
	i, d := c.cfg.ICache, c.cfg.DCache
	if i != nil {
		i.FlushPrivate()
	}
	if d == nil {
		return
	}
	for lvl, pc := range d.Caches[:2] {
		if pc != nil && (i == nil || i.Caches[lvl] != pc) {
			pc.Flush()
		}
	}
}

func (c *Core) next01() float64 {
	// xorshift64*: deterministic, cheap, independent of math/rand state.
	c.rng ^= c.rng >> 12
	c.rng ^= c.rng << 25
	c.rng ^= c.rng >> 27
	return float64(c.rng*0x2545F4914F6CDD1D>>11) / float64(1<<53)
}

// Result is the outcome of executing one instruction burst.
type Result struct {
	Cycles   float64
	Counters Counters
}

// Time converts the result's cycle count to simulated wall time at the
// core's configured frequency, slowed by any active throttle.
func (c *Core) Time(cycles float64) sim.Time {
	ns := cycles / (c.cfg.FreqGHz * c.throttle)
	return sim.Time(ns * float64(sim.Nanosecond))
}

// countAccess attributes one hierarchy access to the per-level counters.
func (c *Core) countAccess(ctr *Counters, res cache.Result, instrSide bool) {
	if instrSide {
		ctr.L1iAcc++
		if res.Served > cache.L1 {
			ctr.L1iMiss++
		}
	} else {
		ctr.L1dAcc++
		if res.Served > cache.L1 {
			ctr.L1dMiss++
		}
	}
	if res.Served > cache.L1 {
		ctr.L2Acc++
		if res.Served > cache.L2 {
			ctr.L2Miss++
		}
	}
	if res.Served > cache.L2 {
		ctr.L3Acc++
		if res.Served > cache.L3 {
			ctr.L3Miss++
		}
	}
	if res.Served == cache.Mem {
		ctr.MemAcc++
	}
}

// l1Lat returns the first-level hit latency of h, or 0 when absent.
func (c *Core) l1Lat(h *cache.Hierarchy) int {
	if h == nil || h.Caches[0] == nil {
		return 4
	}
	return h.Caches[0].Config().Latency
}

// portTab caches, for every possible mask, the port indices it allows as a
// fixed array plus a count — no slice headers on the hot path. An empty
// mask degrades to port 0. Unused slots repeat the first port: under the
// strict-< least-loaded scan a duplicate can never win, so the selection
// loop may read a fixed four slots (no iform in the table allows more than
// four ports) without a data-dependent bound.
var portTab = func() (t struct {
	list [256][8]uint8
	n    [256]uint8
}) {
	for m := 0; m < 256; m++ {
		for p := uint8(0); p < 8; p++ {
			if m&(1<<p) != 0 {
				t.list[m][t.n[m]] = p
				t.n[m]++
			}
		}
		if t.n[m] == 0 {
			t.list[m][0] = 0
			t.n[m] = 1
		}
		for k := t.n[m]; k < 8; k++ {
			t.list[m][k] = t.list[m][0]
		}
	}
	return
}()

// portPack packs each mask's first four candidate ports into one word
// (byte k = candidate k), the form the execution loop consumes: Decode
// stores portPack[mask] per instruction, so selection needs no second
// table lookup.
var portPack = func() (t [256]uint32) {
	for m := range t {
		pl := &portTab.list[m]
		t[m] = uint32(pl[0]) | uint32(pl[1])<<8 | uint32(pl[2])<<16 | uint32(pl[3])<<24
	}
	return
}()
