// Package steady implements sampled steady-state execution: a per-group
// convergence detector over the microarchitectural signals the model already
// exposes (mean cycles, branch-miss rate, L1d-miss rate), and a sampler
// that — once a pregenerated request or kernel-stream variant set has
// converged — executes only periodic detailed windows of requests and models
// the stretches in between from the measured empirical distribution of full
// executions.
//
// The contract is the one Ditto's fidelity argument needs: every instruction
// executes while the clone's caches and predictors are still converging;
// after that, periodic detailed windows keep cache, predictor, page-cache
// and kernel state advancing honestly, while modeled requests return a
// complete cpu.Result (cycles and counters drawn together from one observed
// execution) so dtrace spans, netsim timing, scheduler occupancy and
// per-edge stats are fed identically to full execution.
//
// The sampling schedule is SMARTS-style and global per kernel, not
// per-stream: all eligible traffic executes together during a detailed
// window, so executed samples experience realistic mutual cache pressure,
// and the head of each window (the transient over caches left stale by the
// modeled stretch) is excluded from the measured distributions.
//
// Determinism: the sampler holds no global state and draws from private
// xorshift streams seeded by the sampler seed and each group's creation
// ordinal — itself deterministic because groups are created in
// request-arrival order under the single-goroutine engine. One sampler
// serves one kernel (one shard), so the conservative-parallel engine never
// shares sampler state across shards and byte-identity holds at every
// -parallel and -intra-parallel width.
package steady

import (
	"math"

	"ditto/internal/cpu"
	"ditto/internal/stats"
)

// Config tunes the detector and the sampling schedule.
type Config struct {
	// Window is the number of counted full executions per convergence
	// window.
	Window int
	// Stable is how many consecutive converged window pairs are required
	// before a group enters steady state.
	Stable int
	// Tol is the relative tolerance on mean cycles between adjacent windows.
	Tol float64
	// RateTol is the absolute tolerance on branch-miss and L1d-miss rates
	// between adjacent windows.
	RateTol float64
	// Every is the steady-state dilation: one detailed window per Every
	// windows' worth of eligible trace executions (the executed fraction of
	// converged traffic is 1/Every).
	Every int
	// Detail is the detailed-window length in eligible trace executions.
	// The sampling period is Detail×Every.
	Detail int
	// Ring is the capacity of the per-group empirical result distribution.
	Ring int
	// Run is how many consecutive modeled requests of one group replay
	// consecutive ring slots from a single random start. Ring slots are in
	// observation order, so runs reproduce the measured autocorrelation of
	// latency (slow stretches arrive together and build queues); fully
	// independent draws would smooth the tail away.
	Run int
	// ReArmFactor scales Tol into the drift threshold that drops a group
	// back out of steady state (phase changes, fault recovery).
	ReArmFactor float64
	// Seed derives every per-group draw stream.
	Seed int64
}

// DefaultConfig is the tuning used by the experiment pipelines: convergence
// windows of 16 with two stable pairs mean a group executes at least 48
// full requests before its first modeled one, and detailed windows of 64
// trace executions once per 448 keep 1-in-7 of converged traffic executing.
func DefaultConfig(seed int64) Config {
	return Config{Window: 16, Stable: 2, Tol: 0.05, RateTol: 0.02,
		Every: 21, Detail: 64, Ring: 48, Run: 12, ReArmFactor: 4, Seed: seed}
}

// norm fills in zero fields with defaults so a partially-specified Config
// cannot divide by zero or stall.
func (c Config) norm() Config {
	d := DefaultConfig(c.Seed)
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.Stable <= 0 {
		c.Stable = d.Stable
	}
	if c.Tol <= 0 {
		c.Tol = d.Tol
	}
	if c.RateTol <= 0 {
		c.RateTol = d.RateTol
	}
	if c.Every <= 1 {
		c.Every = d.Every
	}
	if c.Detail <= 0 {
		c.Detail = d.Detail
	}
	if c.Ring <= 0 {
		c.Ring = d.Ring
	}
	if c.Run <= 0 {
		c.Run = d.Run
	}
	if c.ReArmFactor <= 1 {
		c.ReArmFactor = d.ReArmFactor
	}
	return c
}

// group is the sampler's per-group state: one pregenerated variant set — a
// (body, kind)'s rotating bodies or a syscall op's rotating kstreams —
// keyed by the set's canonical trace pointer (Trace.Group), so two tiers
// sharing a kernel can never collide and the rotating members pool their
// statistics: the pooled empirical distribution is exactly the per-kind
// latency distribution a modeled request should reproduce.
type group struct {
	// Convergence windows over counted full executions.
	count                   int
	sumCycles, sumCyclesSq  float64
	sumBranches, sumMispred float64
	sumL1Acc, sumL1Miss     float64

	prevMean, prevVar       float64
	prevBr, prevL1          float64
	prevNBr, prevNL1, prevN float64
	havePrev                bool
	stable                  int
	steady                  bool

	// The measured result distribution: dist indexes results — Add and
	// DrawIndex return the shared slot, keeping cycles and counters of one
	// observed execution correlated in every draw.
	dist    *stats.Empirical
	results []cpu.Result

	// Run-draw state: the current replay position and how many modeled
	// requests remain in the run before the next random restart.
	runSlot, runLeft int

	executed, modeled uint64
	windows, reArms   int
}

// Sampler decides, per eligible decoded trace, whether the next request
// executes or is modeled. It is the kernel.ExecSampler implementation; one
// Sampler serves exactly one kernel.
type Sampler struct {
	cfg      Config
	period   int // Detail × Every
	warmSkip int // head of each detailed window excluded from distributions
	gpos     int // global position within the sampling period
	vars     map[*cpu.Trace]*group
	order    []*group // creation order, for deterministic introspection

	// lastWarm flags the execution Next just requested as a window-head
	// transient; Observe reads it in the same engine step (the kernel calls
	// Observe immediately after executing, and one goroutine runs at a
	// time, so the scratch field is race-free).
	lastWarm bool

	// held suspends modeling: every request executes and feeds the
	// detector and distributions, but nothing is drawn. The experiment
	// harness holds samplers through warmup (warmup is never sampled) and
	// arms them at the measurement boundary, so converged groups model
	// from the first measured request.
	held bool

	executed, modeled uint64
	steadyGroups      int
}

// New builds a sampler with cfg (zero fields take defaults).
func New(cfg Config) *Sampler {
	cfg = cfg.norm()
	return &Sampler{cfg: cfg, period: cfg.Detail * cfg.Every,
		warmSkip: cfg.Detail / 4, vars: map[*cpu.Trace]*group{}}
}

// NewDefault builds a sampler with DefaultConfig(seed).
func NewDefault(seed int64) *Sampler { return New(DefaultConfig(seed)) }

// Hold suspends modeling: every request executes fully while the detector
// and distributions keep learning. Use it to cover phases that must never
// be sampled (warmup) without losing the convergence work done there.
func (s *Sampler) Hold() { s.held = true }

// Arm (re-)enables modeling for converged groups. The sampling schedule
// starts at the head of a detailed window, so the first post-arm stretch
// is measured, not modeled.
func (s *Sampler) Arm() { s.held = false; s.gpos = 0 }

// Next reports whether the next request on tr should be modeled, and if so
// returns the drawn result. ok=false means the caller must execute the
// trace and feed the result back through Observe. The hot path is a map
// read plus integer arithmetic; group creation is the one-time cold path.
// ditto:noalloc
func (s *Sampler) Next(tr *cpu.Trace) (cpu.Result, bool) {
	key := tr.Group
	if key == nil {
		key = tr
	}
	v := s.vars[key]
	if v == nil {
		v = s.register(key)
	}
	if s.held {
		s.executed++
		v.executed++
		s.lastWarm = false
		return cpu.Result{}, false
	}
	pos := s.gpos
	s.gpos++
	if s.gpos == s.period {
		s.gpos = 0
	}
	if !v.steady {
		s.executed++
		v.executed++
		s.lastWarm = false
		return cpu.Result{}, false
	}
	if pos < s.cfg.Detail {
		s.executed++
		v.executed++
		// The head of a detailed window runs against caches left stale by
		// the modeled stretch; execute it (that is what re-warms state) but
		// keep it out of the measured distributions.
		s.lastWarm = pos < s.warmSkip
		return cpu.Result{}, false
	}
	s.modeled++
	v.modeled++
	if v.runLeft == 0 {
		v.runSlot = v.dist.DrawIndex()
		v.runLeft = s.cfg.Run
	} else if v.runSlot++; v.runSlot >= v.dist.Count() {
		v.runSlot = 0
	}
	v.runLeft--
	return v.results[v.runSlot], true
}

// Observe feeds one full-execution result into tr's group: the empirical
// draw distribution and the convergence window the drift re-arm watches.
// Callers invoke it for every execution Next asked for; results of modeled
// requests never come back, and window-head transients (lastWarm) are
// executed for their state effects only.
// ditto:noalloc
func (s *Sampler) Observe(tr *cpu.Trace, r cpu.Result) {
	key := tr.Group
	if key == nil {
		key = tr
	}
	v := s.vars[key]
	if v == nil || s.lastWarm {
		return
	}
	slot := v.dist.Add(r.Cycles)
	v.results[slot] = r

	v.count++
	v.sumCycles += r.Cycles
	v.sumCyclesSq += r.Cycles * r.Cycles
	v.sumBranches += float64(r.Counters.Branches)
	v.sumMispred += float64(r.Counters.Mispred)
	v.sumL1Acc += float64(r.Counters.L1dAcc)
	v.sumL1Miss += float64(r.Counters.L1dMiss)
	if v.count >= s.cfg.Window {
		s.windowDone(v)
	}
}

// register creates the per-group state for key — the cold path behind Next,
// hoisted out of the inliner's reach so its allocations stay off the
// noalloc-gated hot path.
//
//go:noinline
func (s *Sampler) register(key *cpu.Trace) *group {
	ord := len(s.order)
	v := &group{
		dist:    stats.NewEmpirical(s.cfg.Ring, s.cfg.Seed+int64(ord)*0x9E3779B9),
		results: make([]cpu.Result, s.cfg.Ring),
	}
	s.vars[key] = v
	s.order = append(s.order, v)
	return v
}

// windowDone closes a convergence window and compares it to the previous
// one. The comparisons are statistically aware: a window is a small sample
// (Window executions, a few hundred branches for a short kstream), so each
// tolerance widens by two standard errors of the compared statistic —
// otherwise ordinary sampling noise in short streams would keep
// well-converged groups executing forever, and once steady, would re-arm
// them spuriously. Adjacent windows that agree on mean cycles (within Tol
// relative + 2 SE) and on branch-/L1d-miss rates (within RateTol absolute
// + 2 binomial SE) count toward Stable; once steady, mean drift beyond
// ReArmFactor times the same allowance re-arms full execution so phase
// changes are re-measured instead of modeled away.
func (s *Sampler) windowDone(v *group) {
	n := float64(v.count)
	mean := v.sumCycles / n
	vr := v.sumCyclesSq/n - mean*mean
	if vr < 0 {
		vr = 0
	}
	br := ratio(v.sumMispred, v.sumBranches)
	l1 := ratio(v.sumL1Miss, v.sumL1Acc)
	if v.havePrev {
		dm := absDiff(mean, v.prevMean)
		meanAllow := s.cfg.Tol*v.prevMean + 2*sqrt(vr/n+v.prevVar/v.prevN)
		if !v.steady {
			brOK := absDiff(br, v.prevBr) <= s.cfg.RateTol+
				2*sqrt(binVar(br, v.sumBranches)+binVar(v.prevBr, v.prevNBr))
			l1OK := absDiff(l1, v.prevL1) <= s.cfg.RateTol+
				2*sqrt(binVar(l1, v.sumL1Acc)+binVar(v.prevL1, v.prevNL1))
			if dm <= meanAllow && brOK && l1OK {
				v.stable++
				if v.stable >= s.cfg.Stable {
					v.steady = true
					s.steadyGroups++
				}
			} else {
				v.stable = 0
			}
		} else if dm > s.cfg.ReArmFactor*meanAllow {
			v.steady = false
			v.stable = 0
			v.reArms++
			s.steadyGroups--
		}
	}
	v.prevMean, v.prevVar, v.prevN = mean, vr, n
	v.prevBr, v.prevNBr = br, v.sumBranches
	v.prevL1, v.prevNL1 = l1, v.sumL1Acc
	v.havePrev = true
	v.windows++
	v.count = 0
	v.sumCycles, v.sumCyclesSq = 0, 0
	v.sumBranches, v.sumMispred = 0, 0
	v.sumL1Acc, v.sumL1Miss = 0, 0
}

// SteadyShare reports the fraction of all sampler-eligible traffic so far
// that belongs to currently-steady groups. The measurement harness uses it
// to right-size warmup in sampled mode: warmup's whole purpose is reaching
// steady state, and the detector can certify that directly instead of
// burning a fixed time budget. Returns 0 until traffic arrives.
func (s *Sampler) SteadyShare() float64 {
	var steady, total uint64
	for _, v := range s.order {
		n := v.executed + v.modeled
		total += n
		if v.steady {
			steady += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(steady) / float64(total)
}

// Executed reports how many requests ran through full execution.
func (s *Sampler) Executed() uint64 { return s.executed }

// Modeled reports how many requests were short-circuited to a drawn result.
func (s *Sampler) Modeled() uint64 { return s.modeled }

// Variants reports how many distinct trace groups the sampler has seen.
func (s *Sampler) Variants() int { return len(s.vars) }

// SteadyVariants reports how many groups are currently in steady state.
func (s *Sampler) SteadyVariants() int { return s.steadyGroups }

// GroupStat is one group's sampling summary, for verification and tuning.
type GroupStat struct {
	Steady   bool
	Windows  int // convergence windows closed
	ReArms   int // steady→full transitions (drift re-arms)
	Executed uint64
	Modeled  uint64
	MeanCyc  float64 // last closed window's mean cycles
}

// GroupStats reports per-group summaries in group creation order — which is
// deterministic, so the report is stable across runs and widths.
func (s *Sampler) GroupStats() []GroupStat {
	out := make([]GroupStat, len(s.order))
	for i, v := range s.order {
		out[i] = GroupStat{Steady: v.steady, Windows: v.windows,
			ReArms: v.reArms, Executed: v.executed, Modeled: v.modeled,
			MeanCyc: v.prevMean}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func absDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// binVar is the binomial variance of an observed rate p over n trials —
// the sampling noise floor for a miss-rate comparison.
func binVar(p, n float64) float64 {
	if n <= 0 {
		return 0
	}
	return p * (1 - p) / n
}
