package profile

import (
	"sort"
	"strings"

	"ditto/internal/kernel"
	"ditto/internal/sim"
)

// stapState aggregates the SystemTap-style kernel observations: the syscall
// log (types, counts, byte/offset distributions, fd classes) and thread
// lifecycle events, from which it detects the network model and thread
// model of §4.3 and the syscall profile of §4.4.1.
type stapState struct {
	procName string

	ops      [kernel.NumSyscalls + 1]opAgg
	perTID   map[int]*tidAgg
	wakes    map[string]int
	spawns   int
	exits    int
	started  sim.Time
	haveTime bool
	lastTime sim.Time
}

type opAgg struct {
	count   uint64
	bytes   uint64
	files   map[string]uint64
	offsets []int64 // reservoir of observed offsets
}

type tidAgg struct {
	name    string
	ops     [kernel.NumSyscalls + 1]uint64
	first   sim.Time
	last    sim.Time
	exited  bool
	opOrder []kernel.SyscallOp // first occurrence order
}

func newStapState(procName string) *stapState {
	return &stapState{procName: procName, perTID: map[int]*tidAgg{},
		wakes: map[string]int{}}
}

// onSyscall processes one syscall event for the profiled process.
func (s *stapState) onSyscall(ev kernel.SyscallEvent) {
	if ev.Proc != s.procName {
		return
	}
	if !s.haveTime {
		s.started = ev.Time
		s.haveTime = true
	}
	s.lastTime = ev.Time
	a := &s.ops[ev.Op]
	a.count++
	a.bytes += uint64(ev.Bytes)
	if ev.FDClass != "" {
		if a.files == nil {
			a.files = map[string]uint64{}
		}
		a.files[ev.FDClass]++
	}
	if ev.Op == kernel.SysPread && len(a.offsets) < 4096 {
		a.offsets = append(a.offsets, ev.Offset)
	}
	t := s.perTID[ev.TID]
	if t == nil {
		t = &tidAgg{first: ev.Time}
		s.perTID[ev.TID] = t
	}
	if t.ops[ev.Op] == 0 {
		t.opOrder = append(t.opOrder, ev.Op)
	}
	t.ops[ev.Op]++
	t.last = ev.Time
}

// onThread processes one thread lifecycle event.
func (s *stapState) onThread(ev kernel.ThreadEvent) {
	if ev.Proc != s.procName {
		return
	}
	switch ev.Kind {
	case kernel.ThreadSpawn:
		s.spawns++
	case kernel.ThreadExit:
		s.exits++
		if t := s.perTID[ev.TID]; t != nil {
			t.exited = true
		}
	case kernel.ThreadWake:
		if ev.Source != "cpu" && ev.Source != "spawn" {
			s.wakes[ev.Source]++
		}
	}
}

// requests estimates handled requests: responses sent on sockets minus
// observed downstream request sends is not separable from the log alone, so
// the caller may override; the default estimate is socket sends.
func (s *stapState) requests() int {
	return int(s.ops[kernel.SysSend].count)
}

// networkModel classifies the server's network model (§4.3.1).
func (s *stapState) networkModel() string {
	recvs := s.ops[kernel.SysRecv].count
	epolls := s.ops[kernel.SysEpollWait].count
	if epolls > 0 && epolls*10 >= recvs {
		return "iomux"
	}
	// Non-blocking polling shows as many empty recv() probes.
	if recvs > 0 && s.ops[kernel.SysRecv].bytes == 0 {
		return "nonblocking"
	}
	return "blocking"
}

// callTree builds the per-thread call-graph tree for clustering: a root
// labeled by nothing with one child per syscall type in first-use order,
// each annotated with a log-quantized frequency child.
func (t *tidAgg) callTree() *Tree {
	root := &Tree{Label: "thread"}
	for _, op := range t.opOrder {
		n := &Tree{Label: op.String()}
		freq := 0
		for c := t.ops[op]; c > 1; c >>= 1 {
			freq++
		}
		n.Children = append(n.Children, &Tree{Label: freqLabel(freq)})
		root.Children = append(root.Children, n)
	}
	return root
}

func freqLabel(f int) string { return "f" + strings.Repeat("+", f/2) }

// skeleton derives the thread-model description: clusters of similar
// threads (tree-edit distance + agglomerative clustering), long- vs
// short-lived classification, worker counts and trigger points (§4.3.2).
func (s *stapState) skeleton() SkeletonProfile {
	window := s.lastTime - s.started
	var tids []int
	for tid := range s.perTID {
		tids = append(tids, tid)
	}
	sort.Ints(tids)

	trees := make([]*Tree, len(tids))
	for i, tid := range tids {
		trees[i] = s.perTID[tid].callTree()
	}
	nClusters := 0
	if len(trees) > 0 {
		dist := make([][]float64, len(trees))
		for i := range dist {
			dist[i] = make([]float64, len(trees))
			for j := range dist[i] {
				if i != j {
					dist[i][j] = float64(TreeEditDistance(trees[i], trees[j]))
				}
			}
		}
		assign := Agglomerate(dist, 2.0)
		seen := map[int]bool{}
		for _, a := range assign {
			seen[a] = true
		}
		nClusters = len(seen)
	}

	workers := 0
	dispatcher := false
	shortLived := 0
	for _, tid := range tids {
		t := s.perTID[tid]
		life := t.last - t.first
		long := !t.exited || (window > 0 && life*2 > window)
		handles := t.ops[kernel.SysSend] > 0
		accepts := t.ops[kernel.SysAccept] > 0
		switch {
		case long && handles:
			workers++
		case long && accepts && !handles:
			dispatcher = true
		case !long:
			shortLived++
		}
	}
	perConn := s.ops[kernel.SysClone].count > 0 && shortLived+workers > 1

	wakeTotal := 0
	for _, n := range s.wakes { // ditto:determinism-ok reviewed: integer sum
		wakeTotal += n
	}
	sources := map[string]float64{}
	for src, n := range s.wakes { // ditto:determinism-ok reviewed: one independent entry per key
		sources[src] = float64(n) / float64(max(wakeTotal, 1))
	}
	return SkeletonProfile{
		NetworkModel:   s.networkModel(),
		Workers:        workers,
		Dispatcher:     dispatcher,
		PerConn:        perConn,
		ThreadClusters: nClusters,
		WakeSources:    sources,
	}
}

// syscallStats reduces the log to per-request syscall statistics for the
// generator's replay plan. Network and scheduling ops are summarized but
// tagged so the generator knows the skeleton already covers them.
func (s *stapState) syscallStats(requests int, files func(name string) int64) []SyscallStat {
	if requests < 1 {
		requests = 1
	}
	var out []SyscallStat
	for op := 0; op <= kernel.NumSyscalls; op++ {
		a := &s.ops[op]
		if a.count == 0 {
			continue
		}
		st := SyscallStat{
			Op:         kernel.SyscallOp(op),
			PerRequest: float64(a.count) / float64(requests),
			MeanBytes:  float64(a.bytes) / float64(a.count),
		}
		// Dominant fd target; equal counts go to the smaller name.
		var bestN uint64
		// ditto:determinism-ok reviewed: the (count, name) order is total,
		// so the winner does not depend on iteration order.
		for f, n := range a.files {
			if n > bestN || n == bestN && f < st.File {
				bestN = n
				st.File = f
			}
		}
		if strings.HasPrefix(st.File, "file:") && files != nil {
			st.FileSize = files(strings.TrimPrefix(st.File, "file:"))
		}
		if kernel.SyscallOp(op) == kernel.SysPread {
			st.UniformOffsets = offsetsLookUniform(a.offsets, st.FileSize)
		}
		out = append(out, st)
	}
	return out
}

// offsetsLookUniform detects a uniform-random offset pattern: the observed
// offsets spread over most of the file with no dominant locality.
func offsetsLookUniform(offsets []int64, fileSize int64) bool {
	if len(offsets) < 8 || fileSize <= 0 {
		return false
	}
	lo, hi := offsets[0], offsets[0]
	for _, o := range offsets {
		if o < lo {
			lo = o
		}
		if o > hi {
			hi = o
		}
	}
	return float64(hi-lo) > 0.5*float64(fileSize)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
