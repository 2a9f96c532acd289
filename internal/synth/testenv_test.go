package synth

import (
	"testing"

	"ditto/internal/app"
	"ditto/internal/kernel"
	"ditto/internal/platform"
	"ditto/internal/sim"
)

// testEnv is a minimal two-machine environment for package-internal tests
// (the heavyweight harness lives in internal/experiments).
type testEnv struct {
	eng    *sim.Engine
	server *platform.Machine
	client *platform.Machine
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	eng := sim.NewEngine()
	cl := platform.NewCluster(100 * sim.Microsecond)
	srv := platform.NewMachine(eng, "srv", platform.A(), platform.WithCoreCount(4))
	cli := platform.NewMachine(eng, "cli", platform.A(), platform.WithCoreCount(4))
	cl.Add(srv)
	cl.Add(cli)
	return &testEnv{eng: eng, server: srv, client: cli}
}

// drive sends n requests per connection over conns closed-loop connections
// and returns how many responses arrived.
func (e *testEnv) drive(t *testing.T, port, conns, perConn int) int {
	t.Helper()
	cp := e.client.Kernel.NewProc("driver")
	served := 0
	for c := 0; c < conns; c++ {
		cp.Spawn("cli", func(th *kernel.Thread) {
			conn := th.Connect(e.server.Kernel, port)
			for i := 0; i < perConn; i++ {
				th.Send(conn, 64, &app.Request{Kind: 0, SentAt: th.Now()})
				th.Recv(conn)
				served++
			}
		})
	}
	e.eng.RunUntil(20 * sim.Second)
	return served
}

func (e *testEnv) shutdown() {
	e.server.Kernel.Stop()
	e.client.Kernel.Stop()
	e.eng.Run()
}
