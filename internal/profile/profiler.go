package profile

import (
	"ditto/internal/cpu"
	"ditto/internal/isa"
	"ditto/internal/kernel"
)

// Profiler drives all of Ditto's analyzers against one running process. The
// intended use mirrors the paper's workflow: run the application under a
// representative load, Attach at the start of the measurement window, and
// call Finish afterwards to obtain the AppProfile.
type Profiler struct {
	Name string
	// MaxDataWS / MaxInstrWS bound the simulated working-set sweep
	// (Valgrind's cache-size range).
	MaxDataWS  int
	MaxInstrWS int

	sde  *sdeState
	vg   *valgrindState
	stap *stapState

	proc        *kernel.Proc
	k           *kernel.Kernel
	base        cpu.Counters
	baseObs     uint64
	baseMod     uint64
	reqOverride int
}

// NewProfiler builds a profiler for the named process.
func NewProfiler(name string) *Profiler {
	return &Profiler{
		Name:       name,
		MaxDataWS:  256 << 20,
		MaxInstrWS: 1 << 20,
	}
}

// Attach installs observation hooks on the process and its kernel and
// snapshots the hardware counters. Call once, at measurement start.
func (p *Profiler) Attach(proc *kernel.Proc) {
	p.proc = proc
	p.k = proc.Kernel()
	p.base = proc.Counters
	p.baseObs = proc.ObservedBodies
	p.baseMod = proc.ModeledBodies
	p.sde = newSDEState()
	p.vg = newValgrindState(p.MaxDataWS, p.MaxInstrWS)
	p.stap = newStapState(proc.Name)
	proc.ObserveInstrs(func(s []isa.Instr) {
		p.sde.observe(s)
		p.vg.observe(s)
	})
	p.k.ObserveSyscalls(p.stap.onSyscall)
	p.k.ObserveThreads(p.stap.onThread)
}

// SetRequests overrides the request count used for per-request
// normalization — for microservice tiers it comes from the distributed
// traces rather than the syscall log.
func (p *Profiler) SetRequests(n int) { p.reqOverride = n }

// Finish reduces the observations to an AppProfile.
func (p *Profiler) Finish() *AppProfile {
	requests := p.reqOverride
	if requests <= 0 {
		requests = p.stap.requests()
	}
	if requests < 1 {
		requests = 1
	}
	prof := &AppProfile{Name: p.Name, Requests: requests}

	// Skeleton and syscalls (SystemTap).
	prof.Skeleton = p.stap.skeleton()
	prof.Syscalls = p.stap.syscallStats(requests, func(name string) int64 {
		if f := p.k.LookupFile(name); f != nil {
			return f.Size
		}
		return 0
	})
	if recv := p.stap.ops[kernel.SysRecv]; recv.count > 0 {
		prof.ReqBytesMean = float64(recv.bytes) / float64(recv.count)
	}
	if send := p.stap.ops[kernel.SysSend]; send.count > 0 {
		prof.RespBytesMean = float64(send.bytes) / float64(send.count)
	}

	// Body (SDE + Valgrind). Under sampled steady state the observer saw
	// only executed bodies; per-request absolutes scale back up by the
	// observed/(observed+modeled) ratio, while every fraction and
	// normalized histogram below is ratio-of-observed and needs no
	// correction. In full execution modeled is zero and obsScale is 1.
	obsScale := 1.0
	if obs, mod := p.proc.ObservedBodies-p.baseObs, p.proc.ModeledBodies-p.baseMod; obs > 0 && mod > 0 {
		obsScale = float64(obs+mod) / float64(obs)
	}
	b := &prof.Body
	b.InstrsPerRequest = float64(p.sde.instrs) * obsScale / float64(requests)
	b.Mix = p.sde.mix()
	b.Branches, b.BranchShare, b.StaticBranches = p.sde.branchBins()
	b.RAW = normalizeDep(p.sde.rawH)
	b.WAR = normalizeDep(p.sde.warH)
	b.WAW = normalizeDep(p.sde.wawH)
	if p.sde.instrs > 0 {
		b.MemShare = float64(p.sde.memAcc) / float64(p.sde.instrs)
	}
	if p.sde.memAcc > 0 {
		b.SharedFrac = float64(p.sde.sharedAcc) / float64(p.sde.memAcc)
		b.RegularFrac = float64(p.sde.regularAcc) / float64(p.sde.memAcc)
		b.StoreFrac = float64(p.sde.stores) / float64(p.sde.memAcc)
		b.RepFrac = float64(p.sde.repCount) / float64(p.sde.memAcc)
	}
	if p.sde.loads > 0 {
		b.PointerFrac = float64(p.sde.ptrLoads) / float64(p.sde.loads)
	}
	if p.sde.repCount > 0 {
		b.RepBytesMean = float64(p.sde.repBytes) / float64(p.sde.repCount)
	}
	perReq := obsScale / float64(requests)
	p.vg.drain()
	for _, bin := range p.vg.deriveDWS() {
		b.DWS = append(b.DWS, WSBin{Bytes: bin.Bytes, Count: bin.Count * perReq})
	}
	for _, bin := range p.vg.deriveIWS() {
		b.IWS = append(b.IWS, WSBin{Bytes: bin.Bytes, Count: bin.Count * perReq})
	}

	// Calibration target (perf counters over the profiling window).
	var delta cpu.Counters
	delta = p.proc.Counters
	sub := func(a, b uint64) uint64 { return a - b }
	delta.Instrs = sub(delta.Instrs, p.base.Instrs)
	delta.KernelInstrs = sub(delta.KernelInstrs, p.base.KernelInstrs)
	delta.Cycles -= p.base.Cycles
	delta.Branches = sub(delta.Branches, p.base.Branches)
	delta.Mispred = sub(delta.Mispred, p.base.Mispred)
	delta.L1iAcc = sub(delta.L1iAcc, p.base.L1iAcc)
	delta.L1iMiss = sub(delta.L1iMiss, p.base.L1iMiss)
	delta.L1dAcc = sub(delta.L1dAcc, p.base.L1dAcc)
	delta.L1dMiss = sub(delta.L1dMiss, p.base.L1dMiss)
	delta.L2Acc = sub(delta.L2Acc, p.base.L2Acc)
	delta.L2Miss = sub(delta.L2Miss, p.base.L2Miss)
	delta.L3Acc = sub(delta.L3Acc, p.base.L3Acc)
	delta.L3Miss = sub(delta.L3Miss, p.base.L3Miss)
	prof.Target = TargetMetrics{
		IPC:         delta.IPC(),
		BranchMiss:  delta.BranchMissRate(),
		L1iMiss:     delta.L1iMissRate(),
		L1dMiss:     delta.L1dMissRate(),
		L2Miss:      delta.L2MissRate(),
		L3Miss:      delta.L3MissRate(),
		KernelShare: delta.KernelShare(),
	}
	return prof
}
