package app

import (
	"ditto/internal/dtrace"
	"ditto/internal/kernel"
	"ditto/internal/platform"
	"ditto/internal/sim"
	"ditto/internal/stats"
)

// RPCCtx is the per-request context propagated between microservice tiers:
// the root client request (for end-to-end latency), the request kind, and
// the distributed-tracing context.
type RPCCtx struct {
	Req    *Request
	Kind   int
	Trace  dtrace.TraceID
	Parent dtrace.SpanID
	// Resilience metadata. Attempt/Hedged tag which delivery of a retried or
	// hedged call this context carries; Failed is set by the serving tier
	// before it responds when the invocation was shed or lost a downstream
	// dependency, so the caller sees the app-level error.
	Attempt uint8
	Hedged  bool
	Failed  bool
	// root marks the context created at the frontend from the raw client
	// Request. Only the root context's tier may write back to Req: the
	// Request lives on the client's shard-ordered message chain, and a
	// downstream tier scribbling on it from another machine's timeline would
	// be a cross-shard mutation (and a data race under parallel execution).
	root bool
}

// Call is one potential downstream RPC edge.
type Call struct {
	Target    string
	Prob      float64
	ReqBytes  int
	RespBytes int
}

// Registry resolves tier names to network addresses — the service
// discovery a microservice deployment relies on.
type Registry interface {
	Lookup(name string) (k *kernel.Kernel, port int)
}

// TierConfig shapes one microservice tier.
type TierConfig struct {
	Name      string
	Port      int
	Model     string // "epoll" (single event loop) or "pool" (thread per conn)
	RespBytes int
	Calls     map[int][]Call // downstream edges per request kind
	// KindName, when set, labels span operations for this tier's request
	// kinds; nil falls back to the Social Network names.
	KindName func(kind int) string
	Seed     int64
	// Resilience is the tier's RPC survival policy (timeouts, retries,
	// hedging, circuit breaking, load shedding). The zero value is the plain
	// blocking call: no timeout, no retries, no breaker, no shedding.
	Resilience Resilience
}

// Tier is a generic RPC microservice: a network/thread skeleton, a request
// body, optional extra syscall work, and downstream calls. Both the
// original Social Network tiers and Ditto-generated synthetic tiers are
// Tier instances — with different bodies and configs.
type Tier struct {
	Base
	Cfg       TierConfig
	Body      Body
	Registry  Registry
	Collector *dtrace.Collector
	// PostWork, when set, performs tier-specific syscalls per request
	// (e.g. a storage tier's pread) after the body runs.
	PostWork func(th *kernel.Thread, kind int)
	// DynCalls, when set, computes this request's downstream edges instead
	// of the static Cfg.Calls table — for tiers whose fan-out depends on
	// per-request state (a storage adapter calling its blob tier only on
	// block-cache misses). It runs after Body and PostWork.
	DynCalls func(th *kernel.Thread, kind int) []Call

	rng      *stats.Rand
	conns    map[*kernel.Thread]map[string]*kernel.Endpoint
	breakers map[string]*Breaker // per downstream target
	streams  *StreamCache        // rotating pregenerated request streams for Body
	arm      *dtrace.Arm         // this machine's shard-local recording surface
}

// NewTier builds a tier on m.
func NewTier(m *platform.Machine, cfg TierConfig, body Body) *Tier {
	if cfg.Model == "" {
		cfg.Model = "epoll"
	}
	if cfg.RespBytes <= 0 {
		cfg.RespBytes = 512
	}
	t := &Tier{
		Base: NewBase(cfg.Name, m, cfg.Port, cfg.Seed),
		Cfg:  cfg, Body: body,
		rng:      stats.NewRand(cfg.Seed ^ 0x7349),
		conns:    map[*kernel.Thread]map[string]*kernel.Endpoint{},
		breakers: map[string]*Breaker{},
	}
	if body != nil {
		t.streams = NewStreamCache(body)
	}
	return t
}

// Start launches the tier's skeleton. Tracing arms register here — setup
// time, single-threaded — keyed by the host machine's cluster index, so
// tiers sharing a machine share its arm and a shared Collector is never
// touched across shards mid-run.
func (t *Tier) Start() {
	if t.Collector != nil && t.arm == nil {
		t.arm = t.Collector.Arm(uint64(t.M.Index) + 1)
	}
	// Bodies are often installed after NewTier (they need the tier's process
	// MemBase); build their stream cache here so a post-construction Body is
	// not silently skipped.
	if t.streams == nil && t.Body != nil {
		t.streams = NewStreamCache(t.Body)
	}
	switch t.Cfg.Model {
	case "pool":
		t.P.Spawn("acceptor", func(th *kernel.Thread) {
			l := th.Listen(t.Cfg.Port)
			ConnPerThreadLoop(th, l, t.handle)
		})
	default:
		t.P.Spawn("eventloop", func(th *kernel.Thread) {
			l := th.Listen(t.Cfg.Port)
			EventLoop(th, l, t.handle)
		})
	}
}

// ctxOf extracts or creates the RPC context for an incoming message.
func (t *Tier) ctxOf(msg kernel.Msg) *RPCCtx {
	switch p := msg.Payload.(type) {
	case *RPCCtx:
		return p
	case *Request:
		ctx := &RPCCtx{Req: p, Kind: p.Kind, root: true}
		if t.arm != nil {
			ctx.Trace = t.arm.StartTrace()
		}
		return ctx
	default:
		return &RPCCtx{}
	}
}

// handle serves one RPC: trace span, body work, optional syscall work,
// downstream calls, response.
func (t *Tier) handle(th *kernel.Thread, conn *kernel.Endpoint, msg kernel.Msg) {
	ctx := t.ctxOf(msg)
	r := &t.Cfg.Resilience
	diskStart := th.Proc.DiskReadBytes + th.Proc.DiskWritten
	var span dtrace.Span
	if t.arm != nil && ctx.Trace != 0 {
		op := kindName(ctx.Kind)
		if t.Cfg.KindName != nil {
			op = t.Cfg.KindName(ctx.Kind)
		}
		span = dtrace.Span{Trace: ctx.Trace, ID: t.arm.NextSpanID(),
			Parent: ctx.Parent, Service: t.Cfg.Name,
			Operation: op, Start: th.Now(),
			ReqBytes: msg.Bytes, RespBytes: t.Cfg.RespBytes,
			Attempt: ctx.Attempt, Hedged: ctx.Hedged}
	}
	// Load shedding: a request that sat in the server queue past the policy
	// bound is rejected before any body work — overload control.
	if r.ShedAfter > 0 && msg.Sent > 0 && th.Now()-msg.Sent > r.ShedAfter {
		t.fail(ctx, &span)
		if span.ID != 0 {
			span.End = th.Now()
			t.arm.Record(span)
		}
		t.finish(ctx)
		echo(th, conn, msg, t.Cfg.RespBytes)
		return
	}
	if t.streams != nil {
		th.RunTrace(t.streams.Next(ctx.Kind))
	}
	if t.PostWork != nil {
		t.PostWork(th, ctx.Kind)
	}
	calls := t.Cfg.Calls[ctx.Kind]
	if t.DynCalls != nil {
		calls = t.DynCalls(th, ctx.Kind)
	}
	for _, call := range calls {
		// Prob ≤ 1 is a Bernoulli edge (Prob == 1 draws nothing, preserving
		// legacy rng streams); Prob > 1 replays a learned multi-call edge —
		// int(Prob) guaranteed calls plus a Bernoulli on the fraction.
		n := 1
		switch {
		case call.Prob < 1:
			if t.rng.Float64() >= call.Prob {
				continue
			}
		case call.Prob > 1:
			n = int(call.Prob)
			if frac := call.Prob - float64(n); frac > 0 && t.rng.Float64() < frac {
				n++
			}
		}
		for ; n > 0; n-- {
			if !t.callResilient(th, call, ctx, &span) {
				span.DownErrors++
				t.fail(ctx, &span)
			}
		}
	}
	if span.ID != 0 {
		span.End = th.Now()
		span.DiskBytes = th.Proc.DiskReadBytes + th.Proc.DiskWritten - diskStart
		t.arm.Record(span)
	}
	t.finish(ctx)
	echo(th, conn, msg, t.Cfg.RespBytes)
}

// fail marks this invocation degraded: the serving span and the RPC context
// the caller will inspect both record the error. The root client Request is
// deliberately not touched here — see finish.
func (t *Tier) fail(ctx *RPCCtx, span *dtrace.Span) {
	ctx.Failed = true
	span.Failed = true
}

// finish propagates the outcome to the root client Request, at the frontend
// only, just before the response is echoed. The frontend runs on one
// machine and the Request rides the ordered message chain back to the
// client, so this is the only place Req may be written without a cross-shard
// race; downstream failures reach here via the Failed bit on each reply
// context.
func (t *Tier) finish(ctx *RPCCtx) {
	if ctx.root && ctx.Failed && ctx.Req != nil {
		ctx.Req.Failed = true
	}
}

// callResilient performs one downstream call under the tier's resilience
// policy: bounded dial + response wait per attempt, exponential backoff with
// deterministic jitter between attempts, one hedged duplicate per attempt,
// and a per-edge circuit breaker. It returns false when the call ultimately
// failed — breaker open, attempts exhausted, or the downstream answered with
// an app-level error (which is final: retrying cannot fix a deeper outage).
func (t *Tier) callResilient(th *kernel.Thread, call Call, ctx *RPCCtx, span *dtrace.Span) bool {
	r := &t.Cfg.Resilience
	reqB := call.ReqBytes
	if reqB <= 0 {
		reqB = 256
	}
	br := t.breakerFor(call.Target)
	if !br.Allow(th.Now()) {
		span.BreakerOpen = true
		return false
	}
	if r.Timeout <= 0 {
		// No timeout configured: one blocking call, no retries.
		down := t.connTo(th, call.Target)
		child := &RPCCtx{Req: ctx.Req, Kind: ctx.Kind, Trace: ctx.Trace, Parent: span.ID}
		th.Send(down, reqB, child)
		reply, _ := th.Recv(down).Payload.(*RPCCtx)
		ok := reply == child && !reply.Failed
		br.OnResult(th.Now(), ok)
		return ok
	}
	var sent [8]*RPCCtx // pointer-identity set for reply matching
	n := 0
	success := false
	for k := 0; k <= r.Retries; k++ {
		if k > 0 {
			span.Retries++
			if d := r.retryDelay(k, t.rng); d > 0 {
				th.Sleep(d)
			}
		}
		down := t.connResilient(th, call.Target, r.Timeout)
		if down == nil {
			continue // dial timed out (listener unbound); back off and retry
		}
		child := &RPCCtx{Req: ctx.Req, Kind: ctx.Kind, Trace: ctx.Trace,
			Parent: span.ID, Attempt: uint8(k)}
		if n < len(sent) {
			sent[n] = child
			n++
		}
		th.Send(down, reqB, child)
		reply, hedge := t.awaitReply(th, down, sent[:n], reqB, ctx, span, k)
		if hedge != nil && n < len(sent) {
			sent[n] = hedge
			n++
		}
		if reply != nil {
			success = !reply.Failed
			break
		}
	}
	br.OnResult(th.Now(), success)
	return success
}

// awaitReply waits out one attempt's response window on down, sending a
// hedged duplicate at the policy's hedge point and accepting whichever copy
// of any of this call's attempts answers first. Replies to earlier calls on
// the same connection (a previous attempt that timed out after the server
// served it) are discarded by pointer identity. It returns nil when the
// window closes or the connection dies, plus the hedge context if one was
// sent.
func (t *Tier) awaitReply(th *kernel.Thread, down *kernel.Endpoint, sent []*RPCCtx,
	reqB int, ctx *RPCCtx, span *dtrace.Span, attempt int) (*RPCCtx, *RPCCtx) {
	r := &t.Cfg.Resilience
	start := th.Now()
	deadline := start + r.Timeout
	hedgeAt := sim.Time(-1)
	if r.HedgeAfter > 0 && r.HedgeAfter < r.Timeout {
		hedgeAt = start + r.HedgeAfter
	}
	var hedge *RPCCtx
	for {
		limit := deadline
		if hedge == nil && hedgeAt >= 0 && hedgeAt < limit {
			limit = hedgeAt
		}
		if wait := limit - th.Now(); wait > 0 {
			msg, got := th.RecvTimeout(down, wait)
			if got {
				reply, isCtx := msg.Payload.(*RPCCtx)
				if isCtx {
					for _, a := range sent {
						if reply == a {
							return reply, hedge
						}
					}
					if reply == hedge {
						return reply, hedge
					}
				}
				continue // stale reply from an earlier call; keep waiting
			}
			if down.Dead() {
				return nil, hedge
			}
		}
		if th.Now() >= deadline {
			return nil, hedge
		}
		if hedge == nil && hedgeAt >= 0 && th.Now() >= hedgeAt {
			hedge = &RPCCtx{Req: ctx.Req, Kind: ctx.Kind, Trace: ctx.Trace,
				Parent: span.ID, Attempt: uint8(attempt), Hedged: true}
			span.Retries++
			th.Send(down, reqB, hedge)
		}
	}
}

// breakerFor returns the circuit breaker guarding one downstream edge,
// creating it from the tier's policy on first use.
func (t *Tier) breakerFor(target string) *Breaker {
	b := t.breakers[target]
	if b == nil {
		r := &t.Cfg.Resilience
		b = NewBreaker(r.BreakerFails, r.BreakerOpenFor)
		t.breakers[target] = b
	}
	return b
}

// connResilient returns a live cached connection to target, re-dialing with
// a bounded wait when the cache is empty or the cached connection died with
// a crashed peer. It returns nil when the target cannot be reached in time.
func (t *Tier) connResilient(th *kernel.Thread, target string, d sim.Time) *kernel.Endpoint {
	per := t.conns[th]
	if per == nil {
		per = map[string]*kernel.Endpoint{}
		t.conns[th] = per
	}
	if c := per[target]; c != nil && !c.Dead() {
		return c
	}
	k, port := t.Registry.Lookup(target)
	c := th.ConnectTimeout(k, port, d)
	if c == nil {
		delete(per, target)
		return nil
	}
	per[target] = c
	return c
}

// Crash kills the tier's process mid-run: every thread unwinds, the listener
// unbinds, and all its connections close — upstream callers see dead
// connections and dial timeouts until Restart. The per-thread connection
// cache dies with the threads, so it is reset.
func (t *Tier) Crash() {
	t.M.Kernel.KillProc(t.P)
	t.conns = map[*kernel.Thread]map[string]*kernel.Endpoint{}
}

// Restart relaunches the tier's skeleton after a Crash (a container
// restart). New threads spawn into the same process, so counters persist.
func (t *Tier) Restart() { t.Start() }

// connTo returns this thread's persistent connection to a downstream tier,
// dialing on first use.
func (t *Tier) connTo(th *kernel.Thread, target string) *kernel.Endpoint {
	per := t.conns[th]
	if per == nil {
		per = map[string]*kernel.Endpoint{}
		t.conns[th] = per
	}
	if c := per[target]; c != nil {
		return c
	}
	k, port := t.Registry.Lookup(target)
	c := th.Connect(k, port)
	per[target] = c
	return c
}

// Request kinds used by the Social Network.
const (
	KindComposePost = iota
	KindReadHomeTimeline
	KindReadUserTimeline
	NumKinds
)

// kindName names a request kind for span operations.
func kindName(kind int) string {
	switch kind {
	case KindComposePost:
		return "compose-post"
	case KindReadHomeTimeline:
		return "read-home-timeline"
	case KindReadUserTimeline:
		return "read-user-timeline"
	}
	return "op"
}
