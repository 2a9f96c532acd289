package kernel

import (
	"ditto/internal/isa"
	"ditto/internal/sim"
)

// SyscallOp identifies a system call in the observation log and in the
// kernel-stream cost table.
type SyscallOp uint8

// System calls the simulated kernel implements.
const (
	SysOpen SyscallOp = iota
	SysClose
	SysPread
	SysWrite
	SysSocket
	SysConnect
	SysAccept
	SysListen
	SysSend
	SysRecv
	SysEpollWait
	SysEpollCtl
	SysClone
	SysFutex
	SysNanosleep
	SysMmap
	SysFsync
	opCtxSwitch // internal: scheduler context-switch path
	NumSyscalls = int(opCtxSwitch)
)

var sysNames = [...]string{
	"open", "close", "pread", "write", "socket", "connect", "accept",
	"listen", "send", "recv", "epoll_wait", "epoll_ctl", "clone", "futex",
	"nanosleep", "mmap", "fsync", "ctxswitch",
}

// String returns the syscall name.
func (s SyscallOp) String() string {
	if int(s) < len(sysNames) {
		return sysNames[s]
	}
	return "sys?"
}

// SyscallEvent is one entry in the syscall log — what the SystemTap-based
// profiler of §4.4.1 consumes: type, byte count, file-descriptor class, and
// arguments.
type SyscallEvent struct {
	Time    sim.Time
	TID     int
	Proc    string
	Op      SyscallOp
	Bytes   int
	Offset  int64  // file offset for pread/write
	FDClass string // "file:<name>", "socket", "" — the profiled fd flags
}

// ThreadEventKind classifies thread lifecycle events.
type ThreadEventKind uint8

// Thread lifecycle kinds.
const (
	ThreadSpawn ThreadEventKind = iota
	ThreadExit
	ThreadWake
)

// ThreadEvent is one thread lifecycle observation, used by the thread-model
// analyzer (§4.3.2) to classify threads as long- or short-lived and find
// their trigger points.
type ThreadEvent struct {
	Time   sim.Time
	TID    int
	Proc   string
	Thread string
	Kind   ThreadEventKind
	Source string // wake trigger: "socket", "timer", "futex", "cpu", "spawn"
}

// syscallEnter charges the kernel-side instruction stream for op (including
// any payload copy) to the calling thread and logs the event. It returns
// after the CPU part of the syscall completes; device waits are layered on
// top by the specific syscall implementations.
func (t *Thread) syscallEnter(op SyscallOp, bytes int, fdClass string) {
	t.syscallEnterOff(op, bytes, 0, fdClass)
}

func (t *Thread) syscallEnterOff(op SyscallOp, bytes int, off int64, fdClass string) {
	k := t.k
	for _, f := range k.sysObs {
		f(SyscallEvent{Time: k.eng.Now(), TID: t.ID, Proc: t.Proc.Name,
			Op: op, Bytes: bytes, Offset: off, FDClass: fdClass})
	}
	tr := k.kstream(op)
	if bytes > 0 {
		// copy_to_user / copy_from_user of the payload, touching a user
		// buffer in the calling process's address space.
		t.tail[0] = isa.Instr{Op: isa.REPMOVSB, PC: kernelTextBase + uint64(op)<<20,
			Addr: t.Proc.MemBase + 1<<30, RepCount: int32(bytes), BranchID: -1,
			Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, Kernel: true}
		t.tailTrace.Decode(t.tail[:])
		t.itemBuf[0] = burstItem{trace: tr}
		t.itemBuf[1] = burstItem{trace: &t.tailTrace}
		t.compute(t.itemBuf[:2])
		return
	}
	t.itemBuf[0] = burstItem{trace: tr}
	t.compute(t.itemBuf[:1])
}
