package app

import (
	"fmt"

	"ditto/internal/kernel"
	"ditto/internal/platform"
)

// Nginx models the web server of §6.1.2: a single worker process running an
// I/O-multiplexing event loop, a large parsing/code footprint (frontend
// pressure), and per-request file I/O through the page cache for static
// content.
type Nginx struct {
	Base
	Files     int
	FileBytes int
	RespBytes int

	parse, filePhase, respond *Phase
	rrFile                    int
	names                     []string // content file names, built once at Start
	streams                   *StreamCache
}

// Nginx stream-cache kinds: the pre-I/O segment (parse + file lookup) and
// the post-I/O response build.
const (
	nginxPre  = 0
	nginxPost = 1
)

// NewNginx builds an NGINX instance serving a warm static-content set.
func NewNginx(m *platform.Machine, port int, seed int64) *Nginx {
	n := &Nginx{Base: NewBase("nginx", m, port, seed), Files: 200,
		FileBytes: 64 << 10, RespBytes: 16 << 10}
	code := n.P.MemBase
	data := n.P.MemBase + 1<<30
	n.parse = NewPhase(PhaseSpec{
		Name: "http-parse", MeanInstrs: 1250, JitterPct: 0.2, FootprintBytes: 56 << 10,
		Weights:    ClassWeights{Load: 0.24, Store: 0.08, ALU: 0.56, SIMD: 0.07, CRC: 0.05},
		BranchFrac: 0.2,
		Branches: []BranchMN{{M: 1, N: 1, Weight: 0.3}, {M: 1, N: 3, Weight: 0.3},
			{M: 2, N: 4, Weight: 0.25}, {M: 5, N: 6, Weight: 0.15}},
		WorkingSets: []WorkingSet{{Bytes: 16 << 10, Frac: 0.6}, {Bytes: 512 << 10, Frac: 0.4}},
		RegularFrac: 0.4, DepChain: 2,
	}, code, data, seed)
	n.filePhase = NewPhase(PhaseSpec{
		Name: "file-lookup", MeanInstrs: 500, JitterPct: 0.15, FootprintBytes: 24 << 10,
		Weights:     ClassWeights{Load: 0.3, Store: 0.06, ALU: 0.56, Mul: 0.03, SIMD: 0.05},
		BranchFrac:  0.15,
		Branches:    []BranchMN{{M: 1, N: 2, Weight: 0.6}, {M: 3, N: 4, Weight: 0.4}},
		WorkingSets: []WorkingSet{{Bytes: 128 << 10, Frac: 1}},
		RegularFrac: 0.3, PointerFrac: 0.1, DepChain: 2,
	}, code+1<<20, data+1<<28, seed+1)
	n.respond = NewPhase(PhaseSpec{
		Name: "respond", MeanInstrs: 350, JitterPct: 0.1, FootprintBytes: 12 << 10,
		Weights:     ClassWeights{Load: 0.18, Store: 0.14, ALU: 0.56, Rep: 0.12},
		BranchFrac:  0.1,
		WorkingSets: []WorkingSet{{Bytes: 1 << 20, Frac: 1}},
		RegularFrac: 0.85, DepChain: 2, RepBytes: 4096,
	}, code+2<<20, data+2<<28, seed+2)
	n.streams = NewPhaseChainCache(map[int][]*Phase{
		nginxPre:  {n.parse, n.filePhase},
		nginxPost: {n.respond},
	})
	return n
}

// Start registers the content files (warm in the page cache, as a serving
// steady state would have them) and launches the worker event loop.
func (n *Nginx) Start() {
	n.names = make([]string, n.Files)
	for f := 0; f < n.Files; f++ {
		n.names[f] = n.fileName(f)
		file := n.M.Kernel.CreateFile(n.names[f], int64(n.FileBytes))
		n.M.Kernel.WarmPages(file, 0, int64(n.FileBytes/kernel.PageBytes))
	}
	n.P.Spawn("worker", func(th *kernel.Thread) {
		l := th.Listen(n.ListenPort)
		EventLoop(th, l, n.handle)
	})
}

func (n *Nginx) fileName(i int) string { return fmt.Sprintf("/srv/www/page-%03d.html", i) }

// handle serves one HTTP GET: parse, open+pread+close, respond.
func (n *Nginx) handle(th *kernel.Thread, conn *kernel.Endpoint, msg kernel.Msg) {
	th.RunTrace(n.streams.Next(nginxPre))

	n.rrFile = (n.rrFile + 1) % n.Files
	fd := th.Open(n.names[n.rrFile])
	th.Pread(fd, n.RespBytes, 0)
	th.CloseFD(fd)

	th.RunTrace(n.streams.Next(nginxPost))
	echo(th, conn, msg, n.RespBytes+200)
}
