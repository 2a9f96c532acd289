package core

import (
	"math"
	"testing"

	"ditto/internal/app"
	"ditto/internal/dtrace"
)

// buildSpans fabricates traces: frontend → svc-b always; svc-b → svc-c with
// probability 0.4 on kind 1 only.
func buildSpans(n int) []dtrace.Span {
	a := dtrace.NewCollector(1).Arm(1)
	var spans []dtrace.Span
	rec := func(s dtrace.Span) {
		a.Record(s)
		spans = append(spans, s)
	}
	for i := 0; i < n; i++ {
		kind := i % 2
		op := "compose-post"
		if kind == 1 {
			op = "read-home-timeline"
		}
		tr := a.StartTrace()
		root := dtrace.Span{Trace: tr, ID: a.NextSpanID(), Service: "frontend",
			Operation: op, ReqBytes: 128, RespBytes: 1024}
		rec(root)
		child := dtrace.Span{Trace: tr, ID: a.NextSpanID(), Parent: root.ID,
			Service: "svc-b", Operation: op, ReqBytes: 256, RespBytes: 512}
		rec(child)
		if kind == 1 && i%5 < 2 { // 40% of kind-1 requests
			rec(dtrace.Span{Trace: tr, ID: a.NextSpanID(), Parent: child.ID,
				Service: "svc-c", Operation: op, ReqBytes: 64, RespBytes: 256})
		}
	}
	return spans
}

func TestLearnTopology(t *testing.T) {
	plans := LearnTopology(buildSpans(100))
	fe := plans["frontend"]
	if fe == nil || !fe.Root {
		t.Fatalf("frontend plan = %+v", fe)
	}
	if fe.RespBytes != 1024 {
		t.Fatalf("frontend resp = %d", fe.RespBytes)
	}
	for _, kind := range []int{app.KindComposePost, app.KindReadHomeTimeline} {
		calls := fe.Calls[kind]
		if len(calls) != 1 || calls[0].Target != "svc-b" || calls[0].Prob != 1 {
			t.Fatalf("frontend kind %d calls = %+v", kind, calls)
		}
		if calls[0].ReqBytes != 256 {
			t.Fatalf("edge req bytes = %d", calls[0].ReqBytes)
		}
	}
	b := plans["svc-b"]
	if len(b.Calls[app.KindComposePost]) != 0 {
		t.Fatalf("svc-b should have no compose-post edges: %+v", b.Calls)
	}
	c1 := b.Calls[app.KindReadHomeTimeline]
	if len(c1) != 1 || c1[0].Target != "svc-c" {
		t.Fatalf("svc-b kind1 calls = %+v", c1)
	}
	if math.Abs(c1[0].Prob-0.4) > 0.05 {
		t.Fatalf("edge prob = %v, want 0.4", c1[0].Prob)
	}
	if plans["svc-c"] == nil || plans["svc-c"].Root {
		t.Fatal("svc-c should exist as a non-root")
	}
}

func TestLearnTopologyEmpty(t *testing.T) {
	plans := LearnTopology(nil)
	if len(plans) != 0 {
		t.Fatalf("plans = %v", plans)
	}
}

func TestGenerateStagedShapes(t *testing.T) {
	prof := sampleProfile()
	a := GenerateStaged(prof, StageSkeleton, 1)
	if len(a.Body.Blocks) != 0 || len(a.Syscalls) != 0 {
		t.Fatalf("stage A should be skeleton-only: %d blocks %d syscalls",
			len(a.Body.Blocks), len(a.Syscalls))
	}
	if a.Skeleton.NetworkModel != "iomux" {
		t.Fatal("stage A must keep the skeleton")
	}
	b := GenerateStaged(prof, StageSyscall, 1)
	if len(b.Syscalls) == 0 || len(b.Body.Blocks) != 0 {
		t.Fatalf("stage B: %d syscalls %d blocks", len(b.Syscalls), len(b.Body.Blocks))
	}
	c := GenerateStaged(prof, StageInstrCount, 1)
	var execs float64
	for _, blk := range c.Body.Blocks {
		execs += blk.LoopsPerRequest * float64(len(blk.Instrs))
		for s := range blk.Instrs {
			if blk.Aux[s].IsMem || blk.Aux[s].IsBranch {
				t.Fatal("stage C must be pure ALU")
			}
		}
	}
	if math.Abs(execs-prof.Body.InstrsPerRequest) > 0.2*prof.Body.InstrsPerRequest {
		t.Fatalf("stage C execs = %v", execs)
	}
	d := GenerateStaged(prof, StageMix, 1)
	var sawBranch, sawMem bool
	maxRegion := 0
	for _, blk := range d.Body.Blocks {
		for s := range blk.Aux {
			if blk.Aux[s].IsBranch {
				sawBranch = true
				if blk.Aux[s].M != 1 || blk.Aux[s].N != 1 {
					t.Fatalf("stage D branches must be worst-case (1,1): %+v", blk.Aux[s])
				}
			}
			if blk.Aux[s].IsMem {
				sawMem = true
				if blk.Aux[s].Region > maxRegion {
					maxRegion = blk.Aux[s].Region
				}
			}
		}
	}
	if !sawBranch || !sawMem {
		t.Fatal("stage D should have branches and memory")
	}
	if len(d.Body.Regions) != 1 || d.Body.Regions[0].WSBytes != 64 {
		t.Fatalf("stage D data should be single 64B working set: %+v", d.Body.Regions)
	}
	f := GenerateStaged(prof, StageIMem, 1)
	if len(f.Body.Blocks) != len(prof.Body.IWS) {
		t.Fatalf("stage F blocks = %d, want per IWS bin", len(f.Body.Blocks))
	}
	g := GenerateStaged(prof, StageDMem, 1)
	if len(g.Body.Regions) != len(prof.Body.DWS) {
		t.Fatalf("stage G regions = %d", len(g.Body.Regions))
	}
	h := GenerateStaged(prof, StageDep, 1)
	full := Generate(prof, 1)
	if len(h.Body.Blocks) != len(full.Body.Blocks) {
		t.Fatal("stage H should equal full generation")
	}
	if StageTune.String() != "I:Tune" || StageSkeleton.String() != "A:Skeleton" {
		t.Fatal("stage names wrong")
	}
	if Stage(99).String() != "stage?" {
		t.Fatal("unknown stage name")
	}
}
