// Package kernel simulates the operating system layer of one machine: a
// run-to-completion scheduler over the machine's cores, coroutine-style
// threads, a syscall interface whose kernel-side instruction streams execute
// on the same CPU model as user code, a page cache in front of the disk,
// and sockets with epoll-style readiness — plus the observation hooks
// (syscall log, thread lifecycle events) that stand in for SystemTap in the
// Ditto pipeline.
//
// Concurrency model: the simulation owns exactly one running goroutine at a
// time. Simulated threads are goroutines parked on a channel handshake; the
// engine resumes one, it runs until it blocks (parks), and control returns.
// All cross-thread wakeups are routed through engine events, which keeps
// every run bit-for-bit deterministic.
package kernel

import (
	"fmt"

	"ditto/internal/cpu"
	"ditto/internal/disk"
	"ditto/internal/isa"
	"ditto/internal/netsim"
	"ditto/internal/sim"
	"ditto/internal/stats"
)

// Resources is the hardware a kernel manages, assembled by the platform.
type Resources struct {
	Cores          []*cpu.Core
	Disk           *disk.Device // nil for diskless workloads
	NIC            *netsim.NIC
	PageCachePages int // page-cache capacity in 4KB pages
}

// Fabric resolves network paths between kernels; the platform implements it.
type Fabric interface {
	Path(src, dst *Kernel) netsim.Path
}

// Kernel is the OS instance of one simulated machine.
type Kernel struct {
	Name string

	eng *sim.Engine
	res Resources

	// Scheduler state. runq is a FIFO ring: runqHead indexes the next burst
	// and the slice is reset when it drains, so steady-state enqueues reuse
	// capacity instead of reallocating behind a sliding front.
	idleCores  []int
	runq       []*burst
	runqHead   int
	coreThread []*Thread // last thread that ran on each core

	// Coroutine handshake.
	parkCh   chan struct{}
	stopping bool
	threads  []*Thread
	nextTID  int
	procSeq  uint64

	// Filesystem.
	files     map[string]*File
	filesByID map[uint64]*File
	nextFS    uint64
	pages     *pageLRU
	flushBuf  []int64 // reusable dirty-page collection buffer (flushFile)

	// Storage observability: page-cache read hits/misses and fsync wall
	// times — the dimensions the storage experiments compare clones on.
	pageHits   uint64
	pageMisses uint64
	fsyncs     uint64
	fsyncLat   stats.Recorder

	// Network.
	fabric    Fabric
	listeners map[int]*Listener
	// sides registers every connection side homed on this kernel so that
	// KillProc can close a dead process's sockets. Without it a crashed
	// tier's connections would keep queueing inbound messages forever —
	// the same class of stale shared state as a dead process's listener.
	sides []*connSide
	// deliveries recycles same-shard message-delivery events (see Send): a
	// steady loopback request/response exchange reuses the same few objects
	// instead of allocating one closure plus one header per message.
	deliveries []*delivery

	// Observation (the SystemTap surface).
	sysObs    []func(SyscallEvent)
	threadObs []func(ThreadEvent)

	ksg    kstreamGen
	kcache [NumSyscalls + 1][]*cpu.Trace
	kvar   [NumSyscalls + 1]uint8

	// sampler, when set, may short-circuit eligible decoded-trace
	// executions to a modeled result (sampled steady-state execution).
	sampler ExecSampler
}

// ExecSampler is the sampled steady-state hook (internal/steady implements
// it). Before executing an eligible decoded trace the kernel asks Next; a
// true ok means the returned result stands in for execution — the burst
// still occupies its core for the result's cycles, counters are charged
// identically, but caches and predictors are left untouched. When ok is
// false the kernel executes the trace and feeds the real result back
// through Observe. Traces with Class cpu.ClassNone never reach the sampler.
type ExecSampler interface {
	Next(tr *cpu.Trace) (cpu.Result, bool)
	Observe(tr *cpu.Trace, r cpu.Result)
}

// SetSampler installs (or, with nil, removes) the steady-state sampler.
// Sampling is opt-in per experiment: profiling runs never install one, so
// the SDE/SystemTap observation surface always sees full execution.
func (k *Kernel) SetSampler(s ExecSampler) { k.sampler = s }

// execTrace is the single choke point for execution — app request bodies
// via RunTrace, kernel syscall streams and their payload-copy tails, and
// the ctx-switch stream all pass through it, which is what gives sampled mode its parity
// across user and kernel instruction streams. The second return reports
// whether the trace actually executed (false: the result was modeled), so
// callers can gate per-instruction observation to executed samples.
func (k *Kernel) execTrace(core *cpu.Core, tr *cpu.Trace) (cpu.Result, bool) {
	if k.sampler != nil && tr.Class != cpu.ClassNone {
		if r, ok := k.sampler.Next(tr); ok {
			return r, false
		}
		r := core.ExecuteTrace(tr)
		k.sampler.Observe(tr, r)
		return r, true
	}
	return core.ExecuteTrace(tr), true
}

// New builds a kernel over the given resources.
func New(eng *sim.Engine, name string, res Resources) *Kernel {
	if len(res.Cores) == 0 {
		panic("kernel: machine needs at least one core")
	}
	if res.PageCachePages <= 0 {
		res.PageCachePages = 1 << 18 // 1GB default
	}
	k := &Kernel{
		Name: name,
		eng:  eng,
		res:  res,
		// ditto:determinism-ok reviewed: the strict-handoff coroutine channel;
		// exactly one goroutine runs at a time, so no order is ever racy.
		parkCh:     make(chan struct{}),
		files:      map[string]*File{},
		filesByID:  map[uint64]*File{},
		pages:      newPageLRU(res.PageCachePages),
		listeners:  map[int]*Listener{},
		coreThread: make([]*Thread, len(res.Cores)),
		ksg:        kstreamGen{rng: 0x853C49E6748FEA9B},
	}
	k.pages.onEvict = k.pageEvicted
	for i := range res.Cores {
		k.idleCores = append(k.idleCores, i)
	}
	return k
}

// Engine returns the simulation engine the kernel runs on.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Resources returns the kernel's hardware.
func (k *Kernel) Resources() Resources { return k.res }

// SetFabric wires the kernel into a network fabric.
func (k *Kernel) SetFabric(f Fabric) { k.fabric = f }

// ObserveSyscalls installs the syscall-event hook (SystemTap analog).
func (k *Kernel) ObserveSyscalls(f func(SyscallEvent)) {
	k.sysObs = append(k.sysObs, f)
}

// ObserveThreads installs the thread-lifecycle hook.
func (k *Kernel) ObserveThreads(f func(ThreadEvent)) {
	k.threadObs = append(k.threadObs, f)
}

// Proc is one process: a counter-attribution domain with a private address
// space base so that different processes never share cache lines.
type Proc struct {
	Name    string
	MemBase uint64

	k        *Kernel
	Counters cpu.Counters

	// Per-process I/O accounting for bandwidth validation.
	NetTxBytes, NetRxBytes     uint64
	DiskReadBytes, DiskWritten uint64

	observer func([]isa.Instr) // SDE-style user-instruction hook

	// Observation accounting under sampled steady state: body executions
	// the observer saw versus ones modeled past it. Profilers scale
	// observer-derived per-request quantities by the ratio; in full
	// execution ModeledBodies is always zero and the scale is exactly 1.
	ObservedBodies, ModeledBodies uint64

	liveThreads int
	spawnedEver int
}

// NewProc creates a process on this kernel. Address-space bases are spaced
// per kernel, not globally: caches are per machine, so distinctness only
// matters between processes of the same kernel — and keeping the counter
// here makes a process's MemBase a pure function of its creation order on
// its own machine, independent of how many other simulations ran first in
// the same OS process (experiment cells execute concurrently).
func (k *Kernel) NewProc(name string) *Proc {
	k.procSeq++
	return &Proc{
		Name:    name,
		MemBase: k.procSeq << 36, // 64GB-spaced address spaces
		k:       k,
	}
}

// Kernel returns the kernel the process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// ObserveInstrs installs the user-level instruction-stream hook (the Intel
// SDE analog). Kernel-side streams are not reported, matching SDE's
// user-space visibility.
func (p *Proc) ObserveInstrs(f func([]isa.Instr)) { p.observer = f }

// LiveThreads reports the number of currently running threads.
func (p *Proc) LiveThreads() int { return p.liveThreads }

// SpawnedThreads reports the total number of threads ever spawned.
func (p *Proc) SpawnedThreads() int { return p.spawnedEver }

// threadKilled unwinds a simulated thread when the kernel stops.
type threadKilled struct{}

// Thread is one simulated kernel thread, implemented as a parked goroutine.
type Thread struct {
	ID   int
	Name string
	Proc *Proc

	k      *Kernel
	resume chan struct{}
	parked bool
	done   bool
	killed bool

	Spawned     sim.Time
	Exited      sim.Time
	CtxSwitches uint64
	lastWakeSrc string

	tail       [1]isa.Instr // reusable payload-copy instruction
	tailTrace  cpu.Trace    // tail, decoded; ClassNone, so never sampled
	timerFn    func()       // reusable timer-wake closure (Sleep, RecvTimeout)
	dispatchFn func()       // reusable wake->dispatch event closure

	// Disk-wait state for the thread's single in-flight Pread: the number
	// of outstanding batched reads plus the shared completion closure.
	diskPending int
	diskFn      func()
	preadRuns   []int // reusable missing-page run lengths

	fdPool []*FD // recycled descriptors (CloseFD refills, Open drains)

	// burst and itemBuf are the thread's reusable CPU-work submission: a
	// thread has at most one burst in flight (compute blocks until it
	// completes), so the whole submit path reuses this storage.
	burst   burst
	itemBuf [2]burstItem
}

// wakeTimer returns the thread's reusable timer-wake closure, building it on
// first use. Timer-driven waits (Sleep, RecvTimeout) fire constantly on the
// RPC hot path; sharing one closure keeps them allocation-free.
func (t *Thread) wakeTimer() func() {
	if t.timerFn == nil {
		t.timerFn = func() { t.k.wake(t, "timer") }
	}
	return t.timerFn
}

// Spawn creates a thread in p running fn. It may be called from setup code
// or from another simulated thread; the new thread starts at the current
// simulation time via a scheduled event.
func (p *Proc) Spawn(name string, fn func(*Thread)) *Thread {
	k := p.k
	k.nextTID++
	t := &Thread{
		ID:   k.nextTID,
		Name: name,
		Proc: p,
		k:    k,
		// ditto:determinism-ok reviewed: per-thread resume channel of the
		// strict handoff; only the engine goroutine ever sends on it.
		resume:  make(chan struct{}),
		Spawned: k.eng.Now(),
	}
	t.dispatchFn = func() { k.dispatch(t) }
	p.liveThreads++
	p.spawnedEver++
	k.threads = append(k.threads, t)
	k.emitThread(ThreadEvent{Time: k.eng.Now(), TID: t.ID, Proc: p.Name,
		Thread: name, Kind: ThreadSpawn})
	go func() { // ditto:determinism-ok reviewed: coroutine body; parked until dispatch resumes it
		<-t.resume
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(threadKilled); !ok {
					panic(r)
				}
			}
			t.done = true
			t.Exited = k.eng.Now()
			p.liveThreads--
			k.emitThread(ThreadEvent{Time: k.eng.Now(), TID: t.ID,
				Proc: p.Name, Thread: t.Name, Kind: ThreadExit})
			// ditto:determinism-ok reviewed: exit-side half of the strict
			// handoff; hands control back to the engine goroutine.
			k.parkCh <- struct{}{}
		}()
		fn(t)
	}()
	t.parked = true
	k.wake(t, "spawn")
	return t
}

// park blocks the calling simulated thread until a wake event resumes it.
// Callers must loop on their condition: wakeups can be spurious.
func (t *Thread) park() {
	t.parked = true
	t.k.parkCh <- struct{}{} // ditto:determinism-ok reviewed: park/resume pair of the strict handoff
	<-t.resume
	if t.k.stopping || t.killed {
		panic(threadKilled{})
	}
}

// dispatch resumes t and blocks until it parks again or exits. Must only be
// called from the engine goroutine (inside an event callback).
func (k *Kernel) dispatch(t *Thread) {
	if t.done || !t.parked {
		return
	}
	t.parked = false
	t.resume <- struct{}{} // ditto:determinism-ok reviewed: resume/park pair of the strict handoff
	<-k.parkCh
}

// wake schedules t to resume via an engine event, recording the wake source
// for the thread-model profiler.
func (k *Kernel) wake(t *Thread, source string) {
	if t == nil || t.done {
		return
	}
	t.lastWakeSrc = source
	k.emitThread(ThreadEvent{Time: k.eng.Now(), TID: t.ID, Proc: t.Proc.Name,
		Thread: t.Name, Kind: ThreadWake, Source: source})
	k.eng.After(0, t.dispatchFn)
}

// KillProc terminates every thread of p (a process crash), unbinds its
// listeners, and closes its connection sides so inbound messages stop
// queueing. It must be called from an engine event (e.g. a fault plane
// action), never from a simulated thread of p itself. The process object
// survives: counters remain readable and new threads may be spawned into it
// later — a container restart.
func (k *Kernel) KillProc(p *Proc) {
	// ditto:determinism-ok reviewed: filtered delete-during-range; the
	// surviving set is the same whatever order the map yields.
	for port, l := range k.listeners {
		if l.proc == p {
			delete(k.listeners, port)
		}
	}
	for _, s := range k.sides {
		if s.proc == p {
			// closeSide also FINs the peer, so remote clients blocked on a
			// connection to the crashed process wake and observe Dead().
			k.closeSide(s)
		}
	}
	for _, t := range k.threads {
		if t.Proc == p && !t.done {
			t.killed = true
			k.wake(t, "kill")
		}
	}
	// Un-fsynced writes die with the process: dirty pages it authored are
	// dropped without ever reaching the device. Writes it already fsynced
	// (or whose writeback eviction forced) are on stable storage and stay.
	k.dropDirty(p)
}

// Stop terminates all simulated threads. Call it after the measurement
// window, then run the engine to drain the kill events.
func (k *Kernel) Stop() {
	k.stopping = true
	for _, t := range k.threads {
		if !t.done {
			k.eng.After(0, t.dispatchFn)
		}
	}
}

// ---- Scheduler ----

// burstItem is one decoded stream of a burst.
type burstItem struct {
	trace   *cpu.Trace
	observe bool // user-level trace: report to the proc's instruction observer when executed
}

// burst is one schedulable unit of CPU work: one or more instruction
// streams executed back to back on the same core. Each thread owns exactly
// one burst (compute blocks until it finishes), so bursts are pooled in the
// Thread and the submit path is allocation-free.
type burst struct {
	t      *Thread
	items  []burstItem
	res    cpu.Result
	done   bool
	coreID int
	finish func() // reusable completion-event closure
}

// submit enqueues a burst and starts it if a core is idle.
func (k *Kernel) submit(b *burst) {
	k.runq = append(k.runq, b)
	k.pump()
}

// pump assigns queued bursts to idle cores.
func (k *Kernel) pump() {
	for len(k.idleCores) > 0 && k.runqHead < len(k.runq) {
		coreID := k.idleCores[len(k.idleCores)-1]
		k.idleCores = k.idleCores[:len(k.idleCores)-1]
		b := k.runq[k.runqHead]
		k.runq[k.runqHead] = nil
		k.runqHead++
		if k.runqHead == len(k.runq) {
			k.runq = k.runq[:0]
			k.runqHead = 0
		}
		k.runBurst(coreID, b)
	}
}

// runBurst executes b on coreID, charging a context switch when the core
// last ran a different thread. The result accumulates directly into b.res
// and completion fires through the burst's reusable closure, keeping the
// per-burst path allocation-free.
func (k *Kernel) runBurst(coreID int, b *burst) {
	core := k.res.Cores[coreID]
	var extra sim.Time
	if prev := k.coreThread[coreID]; prev != b.t && prev != nil {
		b.t.CtxSwitches++
		if prev.Proc != b.t.Proc {
			core.ContextSwitch() // private-cache pollution across processes
		}
		csRes, _ := k.execTrace(core, k.kstream(opCtxSwitch))
		b.t.Proc.Counters.Add(csRes.Counters)
		extra = core.Time(csRes.Cycles)
	}
	k.coreThread[coreID] = b.t
	b.res = cpu.Result{}
	for _, it := range b.items {
		r, executed := k.execTrace(core, it.trace)
		if it.observe && b.t.Proc.observer != nil {
			// The SDE-style observer sees executed samples only: under
			// sampling, every profile quantity is a per-instruction
			// fraction, so observing the detailed windows preserves it
			// while modeled requests skip the observation cost. The
			// observed/modeled split lets profilers rescale per-request
			// absolutes (instructions, working-set touches).
			if executed {
				b.t.Proc.ObservedBodies++
				b.t.Proc.observer(it.trace.Stream)
			} else {
				b.t.Proc.ModeledBodies++
			}
		}
		b.res.Cycles += r.Cycles
		b.res.Counters.Add(r.Counters)
	}
	b.coreID = coreID
	if b.finish == nil {
		b.finish = func() {
			bk := b.t.k
			b.done = true
			bk.idleCores = append(bk.idleCores, b.coreID)
			bk.wake(b.t, "cpu")
			bk.pump()
		}
	}
	k.eng.After(extra+core.Time(b.res.Cycles), b.finish)
}

// kvariantCount is how many pregenerated variants of each syscall's kernel
// stream rotate in use: enough variety that the branch predictor cannot
// memorize a single pattern, cheap enough to generate once.
const kvariantCount = 8

// kstream returns the next pregenerated kernel stream for op, decoded once
// at pregeneration so the scheduler replays traces instead of re-deriving
// static instruction facts on every syscall.
func (k *Kernel) kstream(op SyscallOp) *cpu.Trace {
	if k.kcache[op] == nil {
		vs := make([]*cpu.Trace, kvariantCount)
		for i := range vs {
			var buf []isa.Instr
			vs[i] = cpu.NewTrace(k.ksg.gen(&buf, op, 0, 0))
			vs[i].Class = cpu.ClassKernel
			vs[i].Group = vs[0]
		}
		k.kcache[op] = vs
	}
	i := k.kvar[op]
	k.kvar[op] = (i + 1) % kvariantCount
	return k.kcache[op][i]
}

// compute runs one instruction burst to completion, blocking the thread for
// its simulated duration, and accumulates counters into the process. All
// streams and traces must stay unmodified until compute returns. items must
// alias t.itemBuf (or otherwise outlive the burst).
func (t *Thread) compute(items []burstItem) cpu.Result {
	b := &t.burst
	b.t = t
	b.items = items
	b.res = cpu.Result{}
	b.done = false
	t.k.submit(b)
	for !b.done {
		t.park()
	}
	t.Proc.Counters.Add(b.res.Counters)
	return b.res
}

// RunTrace executes a decoded user-level stream (application body work),
// the thread's one way to run user code. The process's instruction observer
// — the SDE analog — sees the trace's source stream, but only for requests
// that actually execute: modeled requests under sampled steady state skip
// observation, keeping profiled instruction fractions tied to executed
// samples. A ClassNone trace always executes, so the observer always sees it.
func (t *Thread) RunTrace(tr *cpu.Trace) cpu.Result {
	t.itemBuf[0] = burstItem{trace: tr, observe: true}
	return t.compute(t.itemBuf[:1])
}

// Sleep blocks the thread for d of simulated time (nanosleep).
func (t *Thread) Sleep(d sim.Time) {
	t.syscallEnter(SysNanosleep, 0, "")
	deadline := t.k.eng.Now() + d
	t.k.eng.Schedule(deadline, t.wakeTimer())
	for t.k.eng.Now() < deadline {
		t.park()
	}
}

// Now returns the current simulated time.
func (t *Thread) Now() sim.Time { return t.k.eng.Now() }

// Kernel returns the kernel the thread runs on.
func (t *Thread) Kernel() *Kernel { return t.k }

// Yield lets the scheduler run other work (sched_yield).
func (t *Thread) Yield() {
	t.k.wake(t, "yield")
	t.park()
}

// Clone spawns a child thread, charging the clone() syscall to the caller —
// how short-lived worker threads show up in the profile.
func (t *Thread) Clone(name string, fn func(*Thread)) *Thread {
	t.syscallEnter(SysClone, 0, "")
	return t.Proc.Spawn(name, fn)
}

// WaitQueue is a futex-style wait channel for user-space synchronization
// (mutexes, condition variables). Waiters must re-check their condition
// after WaitOn returns: wakeups can be spurious.
type WaitQueue struct {
	k       *Kernel
	waiters []*Thread
	gen     uint64 // bumped by every wake, so wakes during entry aren't lost
}

// NewWaitQueue creates a wait queue on this kernel.
func (k *Kernel) NewWaitQueue() *WaitQueue { return &WaitQueue{k: k} }

// WaitOn blocks the thread until a wake. One futex syscall is charged. If a
// wake arrives while the syscall path is still executing, WaitOn returns
// without blocking (a spurious-looking but lossless wakeup).
func (t *Thread) WaitOn(q *WaitQueue) {
	gen := q.gen
	t.syscallEnter(SysFutex, 0, "")
	if q.gen != gen {
		return
	}
	q.waiters = append(q.waiters, t)
	t.park()
}

// WakeOne wakes the oldest waiter, if any.
func (q *WaitQueue) WakeOne() {
	q.gen++
	if len(q.waiters) == 0 {
		return
	}
	t := q.waiters[0]
	q.waiters = q.waiters[1:]
	q.k.wake(t, "futex")
}

// WakeAll wakes every waiter.
func (q *WaitQueue) WakeAll() {
	q.gen++
	ws := q.waiters
	q.waiters = nil
	for _, t := range ws {
		q.k.wake(t, "futex")
	}
}

// emitThread reports a thread lifecycle event to the observer.
func (k *Kernel) emitThread(ev ThreadEvent) {
	for _, f := range k.threadObs {
		f(ev)
	}
}

// String identifies the kernel in logs and errors.
func (k *Kernel) String() string { return fmt.Sprintf("kernel(%s)", k.Name) }
