package synth

import (
	"ditto/internal/app"
	"ditto/internal/core"
	"ditto/internal/kernel"
	"ditto/internal/platform"
	"ditto/internal/stats"
)

// Server runs a generated SynthSpec as a standalone server application. Its
// skeleton is instantiated from the profile-detected network and thread
// models (§4.3), its handlers replay the profiled syscall plan and execute
// the generated body, and its responses carry the profiled response size.
type Server struct {
	app.Base
	Spec *core.SynthSpec

	bodies  map[int]*Body // per worker
	streams map[int]*app.StreamCache
	file    *kernel.File
	offRng  *stats.Rand
	reps    map[int]*sysReplayer // per worker
}

// NewServer builds the synthetic server on m.
func NewServer(m *platform.Machine, port int, spec *core.SynthSpec, seed int64) *Server {
	s := &Server{
		Spec:    spec,
		bodies:  map[int]*Body{},
		streams: map[int]*app.StreamCache{},
		offRng:  stats.NewRand(seed ^ 0x0FF5E7),
		reps:    map[int]*sysReplayer{},
	}
	s.Base = app.NewBase(spec.Name, m, port, seed)
	return s
}

// body returns worker w's body instance.
func (s *Server) body(w int) *Body {
	b := s.bodies[w]
	if b == nil {
		b = NewBody(&s.Spec.Body, s.P.MemBase+uint64(w+1)<<32, s.Seed+int64(w))
		s.bodies[w] = b
	}
	return b
}

// cache returns worker w's rotating pregenerated-stream cache.
func (s *Server) cache(w int) *app.StreamCache {
	c := s.streams[w]
	if c == nil {
		c = app.NewStreamCache(s.body(w))
		s.streams[w] = c
	}
	return c
}

// rep returns worker w's syscall replayer (workers share the dataset file
// and offset stream but carry their own fractional-rate state).
func (s *Server) rep(w int) *sysReplayer {
	r := s.reps[w]
	if r == nil {
		r = newSysReplayer(s.Spec.Syscalls, s.file, s.offRng)
		s.reps[w] = r
	}
	return r
}

// Start instantiates the skeleton and launches threads.
func (s *Server) Start() {
	// Synthetic dataset for file-syscall replay.
	if maxFile := maxPlanFile(s.Spec.Syscalls); maxFile > 0 {
		s.file = s.M.Kernel.CreateFile("/data/"+s.Spec.Name+".synth", maxFile)
	}

	sk := s.Spec.Skeleton
	switch {
	case sk.PerConn:
		s.P.Spawn("acceptor", func(th *kernel.Thread) {
			l := th.Listen(s.ListenPort)
			app.ConnPerThreadLoop(th, l, func(th *kernel.Thread, c *kernel.Endpoint, m kernel.Msg) {
				s.handle(th, 0, c, m)
			})
		})
	case sk.Workers > 1:
		app.WorkerPool(s.P, s.ListenPort, sk.Workers, s.handle)
	default:
		s.P.Spawn("eventloop", func(th *kernel.Thread) {
			l := th.Listen(s.ListenPort)
			app.EventLoop(th, l, func(th *kernel.Thread, c *kernel.Endpoint, m kernel.Msg) {
				s.handle(th, 0, c, m)
			})
		})
	}
}

// handle serves one synthetic request: syscall replay, body, response.
func (s *Server) handle(th *kernel.Thread, w int, conn *kernel.Endpoint, msg kernel.Msg) {
	s.rep(w).replay(th)
	th.RunTrace(s.cache(w).Next(0))
	resp := s.Spec.RespBytes
	if resp <= 0 {
		resp = 64
	}
	th.Send(conn, resp, msg.Payload)
}
