package dtrace

import (
	"fmt"
	"testing"
	"testing/quick"

	"ditto/internal/sim"
)

func mkSpan(a *Arm, trace TraceID, parent SpanID, svc string) Span {
	s := Span{Trace: trace, ID: a.NextSpanID(), Parent: parent, Service: svc,
		Start: 0, End: sim.Millisecond}
	a.Record(s)
	return s
}

func TestCollectorSampling(t *testing.T) {
	c := NewCollector(3)
	a := c.Arm(1)
	kept := 0
	for i := 0; i < 30; i++ {
		tr := a.StartTrace()
		mkSpan(a, tr, 0, "frontend")
	}
	kept = len(c.Spans())
	if kept != 10 {
		t.Fatalf("kept %d of 30 with 1-in-3 sampling", kept)
	}
	c.Reset()
	if len(c.Spans()) != 0 {
		t.Fatal("reset did not clear spans")
	}
	full := NewCollector(0) // clamps to 1
	fa := full.Arm(1)
	tr := fa.StartTrace()
	mkSpan(fa, tr, 0, "a")
	if len(full.Spans()) != 1 {
		t.Fatal("sampleEvery 1 should keep everything")
	}
}

// TestResetRetainsStorageAndResamples: Reset must keep the span store's
// capacity for reuse and stop sampling traces started before the reset,
// while ids stay monotonic.
func TestResetRetainsStorageAndResamples(t *testing.T) {
	c := NewCollector(1)
	a := c.Arm(1)
	pre := a.StartTrace()
	mkSpan(a, pre, 0, "a")
	storage := cap(a.spans)
	c.Reset()
	if len(c.Spans()) != 0 {
		t.Fatal("reset did not clear spans")
	}
	if cap(a.spans) != storage {
		t.Fatalf("reset dropped the span buffer: cap %d, want %d", cap(a.spans), storage)
	}
	a.Record(Span{Trace: pre, ID: a.NextSpanID(), Service: "a"})
	if len(c.Spans()) != 0 {
		t.Fatal("trace started before Reset must not be sampled after it")
	}
	post := a.StartTrace()
	if post <= pre {
		t.Fatalf("trace ids must stay monotonic across Reset: %d <= %d", post, pre)
	}
	mkSpan(a, post, 0, "a")
	if len(c.Spans()) != 1 {
		t.Fatal("trace started after Reset must be sampled")
	}
}

// TestRecordPathAllocationFree guards the no-resilience span path: once an
// arm's span buffer has warmed up, and across a Reset (which keeps its
// capacity), StartTrace + NextSpanID + Record must not allocate.
func TestRecordPathAllocationFree(t *testing.T) {
	c := NewCollector(1)
	a := c.Arm(1)
	record := func() {
		tr := a.StartTrace()
		s := Span{Trace: tr, ID: a.NextSpanID(), Service: "svc",
			Operation: "get", Start: 0, End: sim.Millisecond,
			ReqBytes: 128, RespBytes: 4096}
		a.Record(s)
	}
	for i := 0; i < 200; i++ {
		record()
	}
	c.Reset()
	if allocs := testing.AllocsPerRun(100, record); allocs != 0 {
		t.Fatalf("span record path allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestArmsConcatenateInKeyOrder: Spans lists each arm's buffer in ascending
// key order whatever order the arms were registered and recorded in, and a
// span of a trace started on another arm is sampled by that arm's id.
func TestArmsConcatenateInKeyOrder(t *testing.T) {
	c := NewCollector(2)
	hi, lo := c.Arm(7), c.Arm(3)
	for i := 0; i < 4; i++ {
		tr := lo.StartTrace()
		mkSpan(hi, tr, 0, "backend")
		mkSpan(lo, tr, 0, "frontend")
	}
	var got []string
	for _, s := range c.Spans() {
		got = append(got, fmt.Sprintf("%s@%d", s.Service, uint64(s.Trace)&(1<<armShift-1)))
	}
	want := "[frontend@2 frontend@4 backend@2 backend@4]"
	if fmt.Sprint(got) != want {
		t.Fatalf("spans = %v, want %s", got, want)
	}
	if c.Arm(3) != lo {
		t.Fatal("Arm must return the registered arm for a known key")
	}
}

func TestBuildGraph(t *testing.T) {
	c := NewCollector(1)
	a := c.Arm(1)
	for i := 0; i < 10; i++ {
		tr := a.StartTrace()
		root := mkSpan(a, tr, 0, "frontend")
		child := mkSpan(a, tr, root.ID, "svc-b")
		if i < 5 {
			mkSpan(a, tr, child.ID, "svc-c")
		}
	}
	g := BuildGraph(c.Spans())
	if len(g.Services) != 3 {
		t.Fatalf("services = %v", g.Services)
	}
	if len(g.Roots) != 1 || g.Roots[0] != "frontend" {
		t.Fatalf("roots = %v", g.Roots)
	}
	if !g.IsAcyclic() {
		t.Fatal("chain graph should be acyclic")
	}
	out := g.Out("svc-b")
	if len(out) != 1 || out[0].To != "svc-c" {
		t.Fatalf("svc-b out = %+v", out)
	}
	if out[0].Prob < 0.45 || out[0].Prob > 0.55 {
		t.Fatalf("edge prob = %v, want 0.5", out[0].Prob)
	}
	fe := g.Out("frontend")
	if len(fe) != 1 || fe[0].Prob != 1 {
		t.Fatalf("frontend out = %+v", fe)
	}
}

func TestGraphCycleDetection(t *testing.T) {
	g := Graph{
		Services: []string{"a", "b"},
		Edges:    []Edge{{From: "a", To: "b"}, {From: "b", To: "a"}},
	}
	if g.IsAcyclic() {
		t.Fatal("cycle not detected")
	}
}

func TestOrphanSpanBecomesRoot(t *testing.T) {
	c := NewCollector(1)
	a := c.Arm(1)
	tr := a.StartTrace()
	a.Record(Span{Trace: tr, ID: a.NextSpanID(), Parent: 9999, Service: "lost"})
	g := BuildGraph(c.Spans())
	if len(g.Roots) != 1 || g.Roots[0] != "lost" {
		t.Fatalf("orphan should be a root: %v", g.Roots)
	}
}

func TestTraces(t *testing.T) {
	c := NewCollector(1)
	a := c.Arm(1)
	t1 := a.StartTrace()
	t2 := a.StartTrace()
	mkSpan(a, t1, 0, "a")
	mkSpan(a, t1, 0, "b")
	mkSpan(a, t2, 0, "a")
	byTrace := c.Traces()
	if len(byTrace) != 2 || len(byTrace[t1]) != 2 || len(byTrace[t2]) != 1 {
		t.Fatalf("traces = %v", byTrace)
	}
}

func TestSpanDuration(t *testing.T) {
	s := Span{Start: sim.Millisecond, End: 3 * sim.Millisecond}
	if s.Duration() != 2*sim.Millisecond {
		t.Fatalf("duration = %v", s.Duration())
	}
}

// Property: reconstruction from any parent-child forest covers every
// service, keeps edge probabilities in (0, 1], and reconstructs a DAG when
// child services are strictly "deeper" than their parents (one service per
// depth level — the shape real layered deployments have).
func TestBuildGraphLayeredProperty(t *testing.T) {
	f := func(links []uint8) bool {
		c := NewCollector(1)
		a := c.Arm(1)
		tr := a.StartTrace()
		type rec struct {
			id    SpanID
			depth int
		}
		var spans []rec
		services := map[string]bool{}
		for _, l := range links {
			parent := SpanID(0)
			depth := 0
			if len(spans) > 0 {
				p := spans[int(l)%len(spans)]
				parent = p.id
				depth = p.depth + 1
			}
			svc := fmt.Sprintf("svc%d", depth) // one service per depth: layered DAG
			services[svc] = true
			s := Span{Trace: tr, ID: a.NextSpanID(), Parent: parent, Service: svc}
			a.Record(s)
			spans = append(spans, rec{id: s.ID, depth: depth})
		}
		g := BuildGraph(c.Spans())
		if len(g.Services) != len(services) {
			return false
		}
		for _, e := range g.Edges {
			if e.Prob <= 0 || e.Calls <= 0 {
				return false
			}
		}
		return len(spans) == 0 || g.IsAcyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildGraphDegradedEdges round-trips resilience tags through graph
// reconstruction: retried, hedged, and failed child invocations must
// aggregate onto the right parent→child edge without disturbing attribution
// on healthy edges.
func TestBuildGraphDegradedEdges(t *testing.T) {
	c := NewCollector(1)
	a := c.Arm(1)
	tr := a.StartTrace()
	root := Span{Trace: tr, ID: a.NextSpanID(), Service: "frontend"}
	a.Record(root)

	// frontend → compose: first delivery fails, retry succeeds, plus one
	// hedged duplicate of the retry.
	compose0 := Span{Trace: tr, ID: a.NextSpanID(), Parent: root.ID,
		Service: "compose", Attempt: 0, Failed: true}
	compose1 := Span{Trace: tr, ID: a.NextSpanID(), Parent: root.ID,
		Service: "compose", Attempt: 1}
	composeH := Span{Trace: tr, ID: a.NextSpanID(), Parent: root.ID,
		Service: "compose", Attempt: 1, Hedged: true}
	a.Record(compose0)
	a.Record(compose1)
	a.Record(composeH)

	// compose → storage: one clean invocation under the successful retry.
	storage := Span{Trace: tr, ID: a.NextSpanID(), Parent: compose1.ID,
		Service: "storage"}
	a.Record(storage)

	g := BuildGraph(c.Spans())
	if !g.IsAcyclic() {
		t.Fatal("degraded graph should stay acyclic")
	}
	edges := map[[2]string]Edge{}
	for _, e := range g.Edges {
		edges[[2]string{e.From, e.To}] = e
	}
	fc, ok := edges[[2]string{"frontend", "compose"}]
	if !ok {
		t.Fatal("frontend→compose edge missing")
	}
	if fc.Calls != 3 || fc.Retries != 2 || fc.Errors != 1 {
		t.Fatalf("frontend→compose = %+v, want Calls=3 Retries=2 Errors=1", fc)
	}
	cs, ok := edges[[2]string{"compose", "storage"}]
	if !ok {
		t.Fatal("compose→storage edge missing")
	}
	if cs.Calls != 1 || cs.Retries != 0 || cs.Errors != 0 {
		t.Fatalf("compose→storage = %+v, want clean single call", cs)
	}
	if _, crossed := edges[[2]string{"frontend", "storage"}]; crossed {
		t.Fatal("storage call attributed to the wrong parent")
	}
	if len(g.Roots) != 1 || g.Roots[0] != "frontend" {
		t.Fatalf("roots = %v", g.Roots)
	}
}
