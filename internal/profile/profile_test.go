package profile

import (
	"math"
	"testing"

	"ditto/internal/app"
	"ditto/internal/isa"
	"ditto/internal/kernel"
	"ditto/internal/loadgen"
	"ditto/internal/platform"
	"ditto/internal/sim"
)

// profileApp runs a server under closed-loop load, attaches the profiler
// after warmup, and returns the finished profile.
func profileApp(t *testing.T, build func(m *platform.Machine) app.App, conns int) *AppProfile {
	t.Helper()
	eng := sim.NewEngine()
	cl := platform.NewCluster(100 * sim.Microsecond)
	srv := platform.NewMachine(eng, "srv", platform.A(), platform.WithCoreCount(8))
	cli := platform.NewMachine(eng, "cli", platform.A(), platform.WithCoreCount(8))
	cl.Add(srv)
	cl.Add(cli)
	a := build(srv)
	a.Start()
	// Attach before load so the skeleton analyzer observes connection
	// establishment and thread spawning (the paper profiles while
	// "experimenting with different connections, QPS").
	p := NewProfiler(a.Name())
	p.MaxDataWS = 64 << 20
	p.Attach(a.Proc())
	g := loadgen.New(loadgen.Config{Name: "lg", Machine: cli, Target: srv.Kernel,
		Port: a.Port(), Conns: conns, Seed: 5})
	g.Start()
	eng.RunUntil(150 * sim.Millisecond)
	prof := p.Finish()

	srv.Kernel.Stop()
	cli.Kernel.Stop()
	eng.Run()
	return prof
}

func TestProfileMemcachedSkeleton(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	prof := profileApp(t, func(m *platform.Machine) app.App {
		return app.NewMemcached(m, 11211, 11)
	}, 8)
	if prof.Skeleton.NetworkModel != "iomux" {
		t.Fatalf("network model = %q, want iomux", prof.Skeleton.NetworkModel)
	}
	if prof.Skeleton.Workers != 4 {
		t.Fatalf("workers = %d, want 4", prof.Skeleton.Workers)
	}
	if !prof.Skeleton.Dispatcher {
		t.Fatal("dispatcher thread not detected")
	}
	if prof.Skeleton.PerConn {
		t.Fatal("memcached misdetected as thread-per-connection")
	}
	if prof.Requests < 50 {
		t.Fatalf("requests = %d", prof.Requests)
	}
	if prof.RespBytesMean < 3000 {
		t.Fatalf("response bytes mean = %v, want ≈ 4KB value", prof.RespBytesMean)
	}
	if prof.Skeleton.ThreadClusters < 2 {
		t.Fatalf("thread clusters = %d, want ≥ 2 (dispatcher vs workers)", prof.Skeleton.ThreadClusters)
	}
}

func TestProfileMongoDBSkeletonAndIO(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	prof := profileApp(t, func(m *platform.Machine) app.App {
		return app.NewMongoDB(m, 27017, 12)
	}, 4)
	if prof.Skeleton.NetworkModel != "blocking" {
		t.Fatalf("network model = %q, want blocking", prof.Skeleton.NetworkModel)
	}
	if !prof.Skeleton.PerConn {
		t.Fatal("thread-per-connection not detected")
	}
	var pread *SyscallStat
	for i := range prof.Syscalls {
		if prof.Syscalls[i].Op == kernel.SysPread {
			pread = &prof.Syscalls[i]
		}
	}
	if pread == nil {
		t.Fatal("no pread stats")
	}
	if math.Abs(pread.PerRequest-1) > 0.2 {
		t.Fatalf("pread per request = %v, want ≈ 1", pread.PerRequest)
	}
	if pread.FileSize != 40<<30 {
		t.Fatalf("file size = %d, want 40GB", pread.FileSize)
	}
	if !pread.UniformOffsets {
		t.Fatal("uniform offsets not detected")
	}
	if math.Abs(pread.MeanBytes-40960) > 2000 {
		t.Fatalf("pread bytes = %v", pread.MeanBytes)
	}
}

func TestProfileRedisBody(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	prof := profileApp(t, func(m *platform.Machine) app.App {
		return app.NewRedis(m, 6379, 13)
	}, 4)
	b := prof.Body
	// Redis body: parse(380) + dict(720) + respond(220) ≈ 1300.
	if b.InstrsPerRequest < 900 || b.InstrsPerRequest > 1900 {
		t.Fatalf("instrs/request = %v", b.InstrsPerRequest)
	}
	if len(b.Mix) < 4 {
		t.Fatalf("mix clusters = %d", len(b.Mix))
	}
	var mixSum float64
	for _, m := range b.Mix {
		mixSum += m.Share
	}
	if math.Abs(mixSum-1) > 0.01 {
		t.Fatalf("mix shares sum to %v", mixSum)
	}
	if b.BranchShare < 0.05 || b.BranchShare > 0.3 {
		t.Fatalf("branch share = %v", b.BranchShare)
	}
	if b.PointerFrac < 0.1 {
		t.Fatalf("pointer-chase fraction = %v, want ≳ 0.2 for dict walk", b.PointerFrac)
	}
	if b.SharedFrac > 0.02 {
		t.Fatalf("shared fraction = %v, redis is single-threaded", b.SharedFrac)
	}
	// Eq. 1 conservation: ΣA_d ≈ memory accesses per request.
	var dwsSum float64
	for _, bin := range b.DWS {
		dwsSum += bin.Count
	}
	memPerReq := b.MemShare * b.InstrsPerRequest
	if dwsSum < memPerReq*0.8 {
		t.Fatalf("ΣA_d = %v vs mem/req ≈ %v", dwsSum, memPerReq)
	}
	// Eq. 2 conservation: ΣE_i ≈ instructions per request.
	var iwsSum float64
	for _, bin := range b.IWS {
		iwsSum += bin.Count
	}
	if math.Abs(iwsSum-b.InstrsPerRequest) > 0.15*b.InstrsPerRequest {
		t.Fatalf("ΣE_i = %v vs instrs/req %v", iwsSum, b.InstrsPerRequest)
	}
	// Dependency histograms normalized.
	var raw float64
	for _, v := range b.RAW.Bins {
		raw += v
	}
	if math.Abs(raw-1) > 0.01 {
		t.Fatalf("RAW histogram sums to %v", raw)
	}
	// Branch bins normalized.
	var bw float64
	for _, bin := range b.Branches {
		bw += bin.Weight
	}
	if math.Abs(bw-1) > 0.01 {
		t.Fatalf("branch weights sum to %v", bw)
	}
	if b.StaticBranches < 50 {
		t.Fatalf("static branches = %d", b.StaticBranches)
	}
	// Target metrics populated.
	if prof.Target.IPC <= 0 || prof.Target.IPC > 4 {
		t.Fatalf("target IPC = %v", prof.Target.IPC)
	}
	if prof.Target.KernelShare <= 0.2 {
		t.Fatalf("kernel share = %v", prof.Target.KernelShare)
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	prof := profileApp(t, func(m *platform.Machine) app.App {
		return app.NewRedis(m, 6379, 14)
	}, 2)
	data, err := prof.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeAppProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != prof.Name || back.Requests != prof.Requests {
		t.Fatal("round trip lost fields")
	}
	if len(back.Body.Mix) != len(prof.Body.Mix) {
		t.Fatal("round trip lost mix")
	}
}

func TestDepBinOf(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 1024: 10, 5000: 10}
	for d, want := range cases {
		if got := DepBinOf(d); got != want {
			t.Errorf("DepBinOf(%d) = %d, want %d", d, got, want)
		}
	}
	if DepBinDistance(3) != 8 {
		t.Fatal("DepBinDistance wrong")
	}
}

func TestTreeEditDistance(t *testing.T) {
	a := &Tree{Label: "r", Children: []*Tree{{Label: "x"}, {Label: "y"}}}
	b := &Tree{Label: "r", Children: []*Tree{{Label: "x"}, {Label: "y"}}}
	if d := TreeEditDistance(a, b); d != 0 {
		t.Fatalf("identical trees distance = %d", d)
	}
	c := &Tree{Label: "r", Children: []*Tree{{Label: "x"}}}
	if d := TreeEditDistance(a, c); d != 1 {
		t.Fatalf("one-deletion distance = %d", d)
	}
	e := &Tree{Label: "r", Children: []*Tree{{Label: "x"}, {Label: "z"}}}
	if d := TreeEditDistance(a, e); d != 1 {
		t.Fatalf("one-relabel distance = %d", d)
	}
	empty := &Tree{Label: "q"}
	if d := TreeEditDistance(a, empty); d != 3 {
		t.Fatalf("to-empty distance = %d", d)
	}
}

func TestAgglomerate(t *testing.T) {
	// Two well-separated groups: {0,1}, {2,3}.
	dist := [][]float64{
		{0, 0.1, 5, 5},
		{0.1, 0, 5, 5},
		{5, 5, 0, 0.2},
		{5, 5, 0.2, 0},
	}
	assign := Agglomerate(dist, 1.0)
	if assign[0] != assign[1] || assign[2] != assign[3] || assign[0] == assign[2] {
		t.Fatalf("assign = %v", assign)
	}
	// Threshold below all distances: everything separate.
	sep := Agglomerate(dist, 0.05)
	seen := map[int]bool{}
	for _, a := range sep {
		seen[a] = true
	}
	if len(seen) != 4 {
		t.Fatalf("low threshold should keep singletons: %v", sep)
	}
}

func TestClusterIForms(t *testing.T) {
	clusters := ClusterIForms(0.5)
	if len(clusters) < 8 {
		t.Fatalf("iform clusters = %d, too coarse", len(clusters))
	}
	find := func(op isa.Op) int {
		for i, cl := range clusters {
			for _, o := range cl {
				if o == op {
					return i
				}
			}
		}
		return -1
	}
	// Simple ALU ops cluster together; divides do not join them.
	if find(isa.ADDrr) != find(isa.SUBrr) {
		t.Fatal("add and sub should share a cluster")
	}
	if find(isa.ADDrr) == find(isa.DIVr) {
		t.Fatal("add and div must not share a cluster")
	}
	if find(isa.MOVload) == find(isa.MOVstore) {
		t.Fatal("loads and stores differ in class behaviour here")
	}
	total := 0
	for _, cl := range clusters {
		total += len(cl)
	}
	if total != isa.NumOps {
		t.Fatalf("clusters cover %d of %d ops", total, isa.NumOps)
	}
}
