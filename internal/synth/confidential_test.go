package synth_test

import (
	"strings"
	"testing"

	"ditto/internal/app"
	"ditto/internal/core"
	"ditto/internal/isa"
	"ditto/internal/loadgen"
	"ditto/internal/platform"
	"ditto/internal/profile"
	"ditto/internal/sim"
	"ditto/internal/synth"
)

// TestCloneRevealsNoOriginalCodeOrData verifies the abstraction property of
// §4.1: the generated artifact shares no instruction addresses, no data
// addresses, and no static code with the original application — only
// post-processed statistics — so it can be shared publicly.
func TestCloneRevealsNoOriginalCodeOrData(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	eng := sim.NewEngine()
	cl := platform.NewCluster(100 * sim.Microsecond)
	srv := platform.NewMachine(eng, "srv", platform.A(), platform.WithCoreCount(8))
	cli := platform.NewMachine(eng, "cli", platform.A(), platform.WithCoreCount(8))
	cl.Add(srv)
	cl.Add(cli)
	a := app.NewRedis(srv, 6379, 51)
	a.Start()

	// Record the original's instruction and data address universe while
	// profiling it.
	origPCs := map[uint64]bool{}
	origAddrs := map[uint64]bool{}
	a.Proc().ObserveInstrs(func(s []isa.Instr) {
		for i := range s {
			origPCs[s[i].PC] = true
			if s[i].Addr != 0 {
				origAddrs[s[i].Addr/64] = true
			}
		}
	})
	p := profile.NewProfiler("redis")
	p.MaxDataWS = 64 << 20
	p.Attach(a.Proc())
	g := loadgen.New(loadgen.Config{Name: "lg", Machine: cli, Target: srv.Kernel,
		Port: a.Port(), Conns: 4, Seed: 51})
	g.Start()
	eng.RunFor(80 * sim.Millisecond)
	prof := p.Finish()
	srv.Kernel.Stop()
	cli.Kernel.Stop()
	eng.Run()

	spec := core.Generate(prof, 99)

	// 1. Static synthetic code never reuses an original instruction address.
	for _, blk := range spec.Body.Blocks {
		for i := range blk.Instrs {
			if origPCs[blk.Instrs[i].PC] {
				t.Fatalf("synthetic PC %#x collides with original code", blk.Instrs[i].PC)
			}
			if blk.Instrs[i].Addr != 0 {
				t.Fatalf("generated static code hard-codes an absolute data address %#x",
					blk.Instrs[i].Addr)
			}
		}
	}

	// 2. The synthetic runtime's data accesses live in its own array, never
	// touching original cache lines.
	body := synth.NewBody(&spec.Body, 1<<45, 7)
	for r := 0; r < 10; r++ {
		for _, in := range body.EmitRequest(0, nil) {
			if in.Addr != 0 && origAddrs[in.Addr/64] {
				t.Fatalf("synthetic access to original data line %#x", in.Addr)
			}
		}
	}

	// 3. The shareable artifact (the profile JSON) carries only aggregate
	// statistics: no address fields and no raw traces.
	data, err := prof.Encode()
	if err != nil {
		t.Fatal(err)
	}
	js := string(data)
	for _, leak := range []string{`"addr"`, `"trace"`, `"pc"`, `"offsets"`} {
		if strings.Contains(strings.ToLower(js), leak) {
			t.Fatalf("profile JSON contains %q — potential leakage surface", leak)
		}
	}
	if len(data) > 64<<10 {
		t.Fatalf("profile unexpectedly large (%d bytes): aggregates only, not traces", len(data))
	}
}
