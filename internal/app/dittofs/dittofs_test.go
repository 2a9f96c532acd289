package dittofs

import (
	"testing"

	"ditto/internal/loadgen"
	"ditto/internal/platform"
	"ditto/internal/sim"
)

// testConfig shrinks the deployment so tests stay fast while the dataset
// still dwarfs the page cache (forced misses) and the block cache.
func testConfig(backend string) Config {
	cfg := DefaultConfig(backend)
	cfg.DatasetBytes = 64 << 20
	cfg.HotBlocks = 128
	cfg.BlockCacheMB = 4
	cfg.WALBytes = 4 << 20
	cfg.LSMFlushBytes = 64 << 10
	return cfg
}

type fsRun struct {
	sent, received int
	walAppends     uint64
	cacheHits      uint64
	cacheMisses    uint64
	fsyncs         uint64
	diskRead       uint64
	diskWrite      uint64
	blobRead       uint64
	blobWrite      uint64
	latMean        float64
}

// runFS drives one DittoFS deployment with the FS mix for a short virtual
// window and returns its observable counters.
func runFS(t *testing.T, backend string, seed int64) fsRun {
	t.Helper()
	return runFSFor(t, backend, seed, 120*sim.Millisecond)
}

func runFSFor(t *testing.T, backend string, seed int64, window sim.Time) fsRun {
	t.Helper()
	eng := sim.NewEngine()
	cl := platform.NewCluster(100 * sim.Microsecond)
	spec := platform.A()
	spec.PageCacheMB = 16
	srv := platform.NewMachine(eng, "srv", spec, platform.WithCoreCount(4))
	blob := platform.NewMachine(eng, "blob", spec, platform.WithCoreCount(4))
	cli := platform.NewMachine(eng, "cli", spec, platform.WithCoreCount(4))
	cl.Add(srv)
	cl.Add(blob)
	cl.Add(cli)

	s := NewService(srv, blob, 9300, testConfig(backend), seed)
	s.Start()
	gen := loadgen.New(loadgen.Config{
		Name: "fs-client", Machine: cli, Target: srv.Kernel, Port: 9300,
		Conns: 8, Mix: loadgen.FSMix(), Seed: seed,
	})
	gen.Start()
	eng.RunUntil(window)
	srv.Kernel.Stop()
	blob.Kernel.Stop()
	cli.Kernel.Stop()
	eng.Run()

	hits, misses := s.BlockCacheStats()
	sc := srv.Disk.Counters()
	bc := blob.Disk.Counters()
	return fsRun{
		sent: gen.Sent(), received: gen.Received(),
		walAppends: s.WALAppends(),
		cacheHits:  hits, cacheMisses: misses,
		fsyncs:   srv.Kernel.Fsyncs() + blob.Kernel.Fsyncs(),
		diskRead: sc.ReadBytes, diskWrite: sc.WriteBytes,
		blobRead: bc.ReadBytes, blobWrite: bc.WriteBytes,
		latMean: gen.Latency().Mean(),
	}
}

// TestBackendsSmoke drives every backend for a race-detector-sized window:
// it asserts only that the service moves — requests answered, WAL
// committing, device written — so `go test -race -short` can afford to run
// the full storage path (client → adapter → WAL fsync → content store)
// while the fidelity assertions stay in the long tests below.
func TestBackendsSmoke(t *testing.T) {
	for _, backend := range []string{"mem", "lsm", "blob"} {
		r := runFSFor(t, backend, 5, 30*sim.Millisecond)
		if r.received == 0 || r.walAppends == 0 || r.diskWrite == 0 {
			t.Fatalf("%s: storage path idle (received=%d walAppends=%d diskWrite=%dB)",
				backend, r.received, r.walAppends, r.diskWrite)
		}
	}
}

// TestBackendsServeRequests checks that each backend serves the FS mix end
// to end with its characteristic storage signature: every backend commits
// through the fsynced WAL and exercises the block cache; lsm adds local
// disk reads and amplified writes; blob moves content traffic to the
// remote tier's device; mem keeps content off the disk entirely.
func TestBackendsServeRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("drives three full deployments; skipped in -short")
	}
	for _, backend := range []string{"mem", "lsm", "blob"} {
		r := runFS(t, backend, 7)
		if r.received < 100 {
			t.Fatalf("%s: received %d responses", backend, r.received)
		}
		if r.walAppends == 0 || r.fsyncs == 0 {
			t.Fatalf("%s: WAL commit path idle (appends=%d fsyncs=%d)",
				backend, r.walAppends, r.fsyncs)
		}
		if r.cacheHits == 0 || r.cacheMisses == 0 {
			t.Fatalf("%s: block cache degenerate (hits=%d misses=%d)",
				backend, r.cacheHits, r.cacheMisses)
		}
		if r.diskWrite == 0 {
			t.Fatalf("%s: WAL fsyncs produced no device writes", backend)
		}
		switch backend {
		case "mem":
			if r.diskRead != 0 {
				t.Fatalf("mem: content reads hit the disk (%dB)", r.diskRead)
			}
		case "lsm":
			if r.diskRead == 0 {
				t.Fatalf("lsm: cache misses produced no disk reads")
			}
		case "blob":
			if r.blobRead == 0 || r.blobWrite == 0 {
				t.Fatalf("blob: remote tier device idle (read=%dB write=%dB)",
					r.blobRead, r.blobWrite)
			}
		}
	}
}

// TestLSMWriteAmplification checks the compaction-shaped write path: the
// lsm backend's device absorbs more bytes than the WAL + journal alone
// (flushes rewrite the memtable; compactions rewrite it again).
func TestLSMWriteAmplification(t *testing.T) {
	if testing.Short() {
		t.Skip("drives two full deployments; skipped in -short")
	}
	mem := runFS(t, "mem", 7)
	lsm := runFS(t, "lsm", 7)
	if lsm.diskWrite <= mem.diskWrite {
		t.Fatalf("lsm device writes %dB not amplified over mem's %dB (WAL-only)",
			lsm.diskWrite, mem.diskWrite)
	}
}

// TestDeterministicAcrossRuns checks that two same-seed runs are
// observationally identical — the repo's byte-identical determinism
// invariant extended to the storage family.
func TestDeterministicAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("drives six full deployments; skipped in -short")
	}
	for _, backend := range []string{"mem", "lsm", "blob"} {
		a := runFS(t, backend, 11)
		b := runFS(t, backend, 11)
		if a != b {
			t.Fatalf("%s: same-seed runs diverged:\n  a=%+v\n  b=%+v", backend, a, b)
		}
	}
}

// TestFSMixMatchesOps pins the loadgen mix to the dittofs kind numbering:
// the two packages share kinds by convention, and this is the assertion
// that keeps them aligned.
func TestFSMixMatchesOps(t *testing.T) {
	mix := loadgen.FSMix()
	if len(mix) != NumOps {
		t.Fatalf("FSMix has %d entries for %d ops", len(mix), NumOps)
	}
	for i, m := range mix {
		if m.Kind != i {
			t.Fatalf("FSMix entry %d has kind %d", i, m.Kind)
		}
		if OpName(m.Kind) == "fs-op" {
			t.Fatalf("FSMix kind %d has no dittofs op name", m.Kind)
		}
	}
	if w := mix[OpWrite]; w.ReqBytes <= DefaultConfig("mem").WriteBytes {
		t.Fatalf("write requests (%dB) do not carry the write payload", w.ReqBytes)
	}
}

// TestWALSurvivesAdapterCrash checks the durability contract end to end at
// the service level: WAL bytes committed (fsynced) before a crash stay on
// the device; dirty pages of the dead process are dropped, not flushed.
func TestWALSurvivesAdapterCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a full write-only deployment; skipped in -short")
	}
	eng := sim.NewEngine()
	cl := platform.NewCluster(100 * sim.Microsecond)
	spec := platform.A()
	spec.PageCacheMB = 16
	srv := platform.NewMachine(eng, "srv", spec, platform.WithCoreCount(4))
	cli := platform.NewMachine(eng, "cli", spec, platform.WithCoreCount(4))
	cl.Add(srv)
	cl.Add(cli)
	s := NewService(srv, nil, 9300, testConfig("mem"), 3)
	s.Start()
	gen := loadgen.New(loadgen.Config{
		Name: "fs-client", Machine: cli, Target: srv.Kernel, Port: 9300,
		Conns: 4, Mix: []loadgen.MixEntry{{Kind: OpWrite, Weight: 1, ReqBytes: 8 << 10}},
		Seed: 3,
	})
	gen.Start()
	eng.RunUntil(200 * sim.Millisecond)
	if s.WALAppends() == 0 {
		t.Fatal("no WAL commits before the crash")
	}
	written := srv.Disk.Counters().WriteBytes
	if written == 0 {
		t.Fatal("fsynced WAL records never reached the device")
	}
	var dirtyDropped bool
	if f := srv.Kernel.LookupFile("/wal/dittofs.wal"); f != nil {
		srv.Kernel.KillProc(s.Adapter.Proc())
		dirtyDropped = f.DirtyPages() == 0
	}
	if !dirtyDropped {
		t.Fatal("crash left un-fsynced dirty WAL pages pending")
	}
	srv.Kernel.Stop()
	cli.Kernel.Stop()
	eng.Run()
	// The fsynced prefix survives: killing the writer must not retract bytes
	// already on stable storage.
	if got := srv.Disk.Counters().WriteBytes; got < written {
		t.Fatalf("device write count went backwards after crash: %d < %d", got, written)
	}
}
