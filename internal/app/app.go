package app

import (
	"fmt"

	"ditto/internal/isa"
	"ditto/internal/kernel"
	"ditto/internal/platform"
	"ditto/internal/sim"
)

// Request is the wire payload carried by every client request; servers echo
// it in the response so the load generator can compute end-to-end latency.
type Request struct {
	Kind   int      // operation type (app-specific)
	SentAt sim.Time // client send timestamp
	Failed bool     // some tier degraded this request (shed, or downstream lost)
}

// App is a runnable server application — original or Ditto-generated.
type App interface {
	Name() string
	Proc() *kernel.Proc
	Machine() *platform.Machine
	Port() int
	// Start spawns the application's threads. It returns immediately; the
	// threads execute under the simulation engine.
	Start()
}

// Base carries the pieces every server app shares.
type Base struct {
	AppName    string
	M          *platform.Machine
	P          *kernel.Proc
	ListenPort int
	Seed       int64
}

// Name returns the application name.
func (b *Base) Name() string { return b.AppName }

// Proc returns the application's process.
func (b *Base) Proc() *kernel.Proc { return b.P }

// Machine returns the machine the app runs on.
func (b *Base) Machine() *platform.Machine { return b.M }

// Port returns the listen port.
func (b *Base) Port() int { return b.ListenPort }

// NewBase wires a Base and its process. The synth runtime builds its
// servers on the same chassis.
func NewBase(name string, m *platform.Machine, port int, seed int64) Base {
	return Base{AppName: name, M: m, P: m.Kernel.NewProc(name), ListenPort: port, Seed: seed}
}

// Handler processes one request message on a connection.
type Handler func(th *kernel.Thread, conn *kernel.Endpoint, msg kernel.Msg)

// EventLoop runs the I/O-multiplexing server model (§4.3.1): one epoll
// instance watching the listener and every accepted connection,
// level-triggered, draining each ready source.
func EventLoop(th *kernel.Thread, l *kernel.Listener, handle Handler) {
	ep := th.Kernel().NewEpoll()
	th.EpollAddListener(ep, l)
	for {
		for _, r := range th.EpollWait(ep) {
			switch {
			case r.Listener != nil:
				for {
					conn := th.TryAccept(r.Listener)
					if conn == nil {
						break
					}
					th.EpollAdd(ep, conn)
				}
			case r.Conn != nil:
				for r.Conn.Pending() > 0 {
					msg, ok := th.TryRecv(r.Conn)
					if !ok {
						break
					}
					handle(th, r.Conn, msg)
				}
			}
		}
	}
}

// ConnPerThreadLoop runs the blocking thread-per-connection server model:
// the acceptor clones a short-lived handler thread per connection, which
// blocks in recv — the MongoDB-style dynamic thread pool.
func ConnPerThreadLoop(th *kernel.Thread, l *kernel.Listener, handle Handler) {
	for {
		conn := th.Accept(l)
		th.Clone("conn-worker", func(w *kernel.Thread) {
			for {
				msg := w.Recv(conn)
				handle(w, conn, msg)
			}
		})
	}
}

// WorkerPool runs the dispatcher/worker-pool server model on p: a
// dispatcher thread accepts connections on port and registers them
// round-robin into per-worker epoll sets (memcached's dispatcher/worker
// notification scheme); each of the workers runs an I/O-multiplexing event
// loop over its own connections, handing handle its worker index. It
// spawns the threads and returns.
func WorkerPool(p *kernel.Proc, port, workers int,
	handle func(th *kernel.Thread, w int, conn *kernel.Endpoint, msg kernel.Msg)) {
	epolls := make([]*kernel.Epoll, workers)
	for w := range epolls {
		epolls[w] = p.Kernel().NewEpoll()
	}
	p.Spawn("dispatcher", func(th *kernel.Thread) {
		l := th.Listen(port)
		next := 0
		for {
			conn := th.Accept(l)
			th.EpollAdd(epolls[next%workers], conn)
			next++
		}
	})
	for w := 0; w < workers; w++ {
		w := w
		p.Spawn(fmt.Sprintf("worker-%d", w), func(th *kernel.Thread) {
			for {
				for _, r := range th.EpollWait(epolls[w]) {
					for r.Conn != nil && r.Conn.Pending() > 0 {
						msg, ok := th.TryRecv(r.Conn)
						if !ok {
							break
						}
						handle(th, w, r.Conn, msg)
					}
				}
			}
		})
	}
}

// echo sends a response of respBytes, propagating the request payload so
// the client can timestamp it.
func echo(th *kernel.Thread, conn *kernel.Endpoint, msg kernel.Msg, respBytes int) {
	th.Send(conn, respBytes, msg.Payload)
}

// Body emits one request's user-level instruction stream. Original
// applications implement it with hidden-parameter phases; Ditto's generator
// implements it with synthesized instruction blocks.
type Body interface {
	EmitRequest(kind int, buf []isa.Instr) []isa.Instr
}

// PhaseBody chains phases into a Body, with an optional per-kind work
// scale.
type PhaseBody struct {
	Phases []*Phase
	Scale  map[int]float64
}

// EmitRequest implements Body.
func (b *PhaseBody) EmitRequest(kind int, buf []isa.Instr) []isa.Instr {
	scale := 1.0
	if s, ok := b.Scale[kind]; ok {
		scale = s
	}
	for _, ph := range b.Phases {
		buf = ph.Emit(buf, scale)
	}
	return buf
}
