// Package dtrace is the distributed-tracing substrate (the Jaeger/Zipkin
// analog of §4.2): services record spans with parent links and a collector
// samples whole traces. Ditto's topology analyzer consumes the collected
// spans to reconstruct the RPC dependency graph.
package dtrace

import "ditto/internal/sim"

// TraceID identifies one end-to-end request.
type TraceID uint64

// SpanID identifies one service invocation within a trace.
type SpanID uint64

// Span is one recorded service invocation.
type Span struct {
	Trace     TraceID
	ID        SpanID
	Parent    SpanID // 0 for root spans
	Service   string
	Operation string
	Start     sim.Time
	End       sim.Time
	// Message-size tags, as production tracing commonly records.
	ReqBytes  int
	RespBytes int
	// DiskBytes is the device traffic (reads + writes) this invocation
	// charged to its process — how storage-tier disk contention is
	// attributed per tier when profiling a write-heavy service.
	DiskBytes uint64
	// Resilience tags. On a server-side span, Attempt and Hedged identify
	// which delivery of the request this invocation served; on a client
	// (parent) span, Retries/DownErrors/BreakerOpen summarize how its
	// downstream calls degraded. Failed marks an invocation that returned an
	// error (its own shed, or a downstream failure it propagated).
	Attempt     uint8
	Hedged      bool
	Failed      bool
	BreakerOpen bool
	Retries     uint16
	DownErrors  uint16
}

// Duration returns the span's wall time.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Collector samples and stores traces. Sampling keeps 1-in-N traces, the
// low-overhead configuration the paper assumes for production tracing.
//
// Spans are recorded only through per-shard Arms (see Arm): each arm owns
// its id counters and span buffer, while the collector holds the sampling
// rate and the arm registry. The sampling decision is pure arithmetic over
// the monotonically-assigned trace ids — every sampleEvery-th id is kept —
// so StartTrace and Record allocate nothing: the span-record hot path stays
// allocation-free once an arm's span buffer has warmed up.
type Collector struct {
	sampleEvery int
	arms        map[uint64]*Arm
	armKeys     []uint64 // registered arm keys, kept sorted
}

// armShift partitions trace and span ids: the top bits carry the arm key,
// the low armShift bits a per-arm sequence.
const armShift = 40

// Arm is one shard-local recording surface of a shared Collector. Every
// machine (shard) gets its own arm, keyed by a small stable integer; ids the
// arm hands out are prefixed with that key, so id streams from different
// shards never collide and the sampling decision stays a pure function of
// the id. Arms are registered at setup time (single-threaded); during a run
// each arm is touched only by its own shard.
type Arm struct {
	c          *Collector
	key        uint64
	nextTrace  uint64
	nextSpan   uint64
	floorTrace uint64 // traces at or below this id predate the last Reset
	spans      []Span
}

// Arm returns the recording arm for key (1..2^24-1), registering it on first
// use. Registration mutates the collector and must happen at setup time, not
// mid-run from a shard.
func (c *Collector) Arm(key uint64) *Arm {
	if key == 0 || key >= 1<<(64-armShift) {
		panic("dtrace: arm key out of range")
	}
	if a := c.arms[key]; a != nil {
		return a
	}
	if c.arms == nil {
		c.arms = map[uint64]*Arm{}
	}
	a := &Arm{c: c, key: key}
	c.arms[key] = a
	i := 0
	for i < len(c.armKeys) && c.armKeys[i] < key {
		i++
	}
	c.armKeys = append(c.armKeys, 0)
	copy(c.armKeys[i+1:], c.armKeys[i:])
	c.armKeys[i] = key
	return a
}

// StartTrace allocates an arm-prefixed trace id; its sampling fate is a
// deterministic function of the id.
// ditto:noalloc
func (a *Arm) StartTrace() TraceID {
	a.nextTrace++
	return TraceID(a.key<<armShift | a.nextTrace)
}

// NextSpanID allocates an arm-prefixed span id.
// ditto:noalloc
func (a *Arm) NextSpanID() SpanID {
	a.nextSpan++
	return SpanID(a.key<<armShift | a.nextSpan)
}

// Record stores a span in the arm's shard-local buffer if the span's trace
// is sampled. The trace may have been started by another arm (a downstream
// service records spans of a frontend-started trace); the decision is pure
// arithmetic on the id, so no cross-shard state is consulted.
// ditto:noalloc
func (a *Arm) Record(s Span) {
	if a.c.isSampled(s.Trace) {
		a.spans = append(a.spans, s)
	}
}

// NewCollector builds a collector keeping every sampleEvery-th trace
// (minimum 1 = keep everything).
func NewCollector(sampleEvery int) *Collector {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &Collector{sampleEvery: sampleEvery}
}

// isSampled reports the sampling decision for a trace id: every
// sampleEvery-th id started after the owning arm's last Reset is kept. The
// arms map is immutable during a run, so this is safe from any shard.
func (c *Collector) isSampled(id TraceID) bool {
	a := c.arms[uint64(id)>>armShift]
	if a == nil {
		return false
	}
	seq := uint64(id) & (1<<armShift - 1)
	return seq > a.floorTrace && seq%uint64(c.sampleEvery) == 0
}

// Spans returns the collected spans: each arm's buffer in ascending key
// order, each in record order. The concatenation is deterministic whatever
// interleaving the shards ran with. The slice is a fresh copy.
func (c *Collector) Spans() []Span {
	n := 0
	for _, key := range c.armKeys {
		n += len(c.arms[key].spans)
	}
	out := make([]Span, 0, n)
	for _, key := range c.armKeys {
		out = append(out, c.arms[key].spans...)
	}
	return out
}

// Traces groups collected spans by trace id.
func (c *Collector) Traces() map[TraceID][]Span {
	out := map[TraceID][]Span{}
	for _, s := range c.Spans() {
		out[s.Trace] = append(out[s.Trace], s)
	}
	return out
}

// Reset drops collected spans but keeps id counters monotonic. Storage is
// retained for reuse; traces started before the Reset are no longer sampled.
func (c *Collector) Reset() {
	for _, key := range c.armKeys {
		a := c.arms[key]
		a.spans = a.spans[:0]
		a.floorTrace = a.nextTrace
	}
}

// Edge is one parent→child service dependency with its observed weight.
type Edge struct {
	From, To string
	Calls    int     // child invocations observed (retries and hedges included)
	Prob     float64 // child invocations per parent invocation
	Retries  int     // duplicate deliveries: child spans with Attempt>0 or Hedged
	Errors   int     // child invocations that returned an error
}

// Graph is a reconstructed service dependency graph.
type Graph struct {
	Services []string
	Edges    []Edge
	Roots    []string
}

// BuildGraph reconstructs the RPC dependency DAG from collected spans —
// the topology-extraction step Ditto feeds to its skeleton generator.
func BuildGraph(spans []Span) Graph {
	type edgeAgg struct{ calls, retries, errors int }
	byID := map[SpanID]Span{}
	parents := map[string]int{}
	edges := map[[2]string]*edgeAgg{}
	services := map[string]bool{}
	roots := map[string]bool{}
	for _, s := range spans {
		byID[s.ID] = s
		services[s.Service] = true
		parents[s.Service]++
	}
	for _, s := range spans {
		if s.Parent == 0 {
			roots[s.Service] = true
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			roots[s.Service] = true
			continue
		}
		key := [2]string{p.Service, s.Service}
		agg := edges[key]
		if agg == nil {
			agg = &edgeAgg{}
			edges[key] = agg
		}
		agg.calls++
		if s.Attempt > 0 || s.Hedged {
			agg.retries++
		}
		if s.Failed {
			agg.errors++
		}
	}
	var g Graph
	for svc := range services {
		g.Services = append(g.Services, svc)
	}
	sortStrings(g.Services)
	// ditto:determinism-ok reviewed: per-edge aggregates are independent and
	// sortEdges orders the result before it is returned.
	for pair, agg := range edges {
		prob := 0.0
		if pn := parents[pair[0]]; pn > 0 {
			prob = float64(agg.calls) / float64(pn)
		}
		g.Edges = append(g.Edges, Edge{From: pair[0], To: pair[1], Calls: agg.calls,
			Prob: prob, Retries: agg.retries, Errors: agg.errors})
	}
	sortEdges(g.Edges)
	for svc := range roots {
		g.Roots = append(g.Roots, svc)
	}
	sortStrings(g.Roots)
	return g
}

// IsAcyclic reports whether the graph is a DAG (microservice topologies
// must be, per §4.2).
func (g Graph) IsAcyclic() bool {
	adj := map[string][]string{}
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(string) bool
	visit = func(n string) bool {
		color[n] = gray
		for _, m := range adj[n] {
			switch color[m] {
			case gray:
				return false
			case white:
				if !visit(m) {
					return false
				}
			}
		}
		color[n] = black
		return true
	}
	for _, s := range g.Services {
		if color[s] == white && !visit(s) {
			return false
		}
	}
	return true
}

// Out returns the outgoing edges of a service.
func (g Graph) Out(service string) []Edge {
	var out []Edge
	for _, e := range g.Edges {
		if e.From == service {
			out = append(out, e)
		}
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sortEdges(e []Edge) {
	less := func(a, b Edge) bool {
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	}
	for i := 1; i < len(e); i++ {
		for j := i; j > 0 && less(e[j], e[j-1]); j-- {
			e[j], e[j-1] = e[j-1], e[j]
		}
	}
}
