package app

import (
	"testing"

	"ditto/internal/kernel"
	"ditto/internal/sim"
	"ditto/internal/stats"
)

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(3, sim.Millisecond)
	now := sim.Time(0)
	for i := 0; i < 3; i++ {
		if !b.Allow(now) {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		b.OnResult(now, false)
	}
	if !b.Open() || b.Trips != 1 {
		t.Fatalf("breaker should be open after 3 consecutive failures: open=%v trips=%d", b.Open(), b.Trips)
	}
	if b.Allow(now + 500*sim.Microsecond) {
		t.Fatal("open breaker admitted a call inside the open window")
	}
	// Past the window: one half-open probe, fail-fast behind it.
	if !b.Allow(now + 2*sim.Millisecond) {
		t.Fatal("breaker should admit a half-open probe")
	}
	if b.Allow(now + 2*sim.Millisecond) {
		t.Fatal("second call should fail fast behind the half-open probe")
	}
	// Probe fails → re-open.
	b.OnResult(now+2*sim.Millisecond, false)
	if !b.Open() || b.Trips != 2 {
		t.Fatal("failed probe should re-open the breaker")
	}
	// Probe succeeds → closed again.
	if !b.Allow(now + 4*sim.Millisecond) {
		t.Fatal("breaker should admit a probe after the second window")
	}
	b.OnResult(now+4*sim.Millisecond, true)
	if b.Open() {
		t.Fatal("successful probe should close the breaker")
	}
	if !b.Allow(now+4*sim.Millisecond) || !b.Allow(now+4*sim.Millisecond) {
		t.Fatal("closed breaker should admit calls freely")
	}
	// A success resets the consecutive-failure count.
	b.OnResult(0, false)
	b.OnResult(0, false)
	b.OnResult(0, true)
	b.OnResult(0, false)
	b.OnResult(0, false)
	if b.Open() {
		t.Fatal("non-consecutive failures should not trip the breaker")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(0, sim.Millisecond)
	for i := 0; i < 100; i++ {
		if !b.Allow(0) {
			t.Fatal("disabled breaker must always allow")
		}
		b.OnResult(0, false)
	}
	if b.Open() || b.Trips != 0 {
		t.Fatal("disabled breaker must never open")
	}
}

func TestRetryDelayDeterministicJitter(t *testing.T) {
	r := &Resilience{Backoff: sim.Millisecond}
	seq := func() []sim.Time {
		rng := stats.NewRand(99)
		var out []sim.Time
		for k := 1; k <= 4; k++ {
			out = append(out, r.retryDelay(k, rng))
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic at retry %d: %v vs %v", i+1, a[i], b[i])
		}
		base := sim.Millisecond << uint(i)
		if a[i] < base/2 || a[i] >= base {
			t.Fatalf("retry %d delay %v outside [%v, %v)", i+1, a[i], base/2, base)
		}
	}
}

// TestResilienceHotPathAllocs pins the no-fault decision layer — breaker
// admission, outcome booking, and backoff math — at zero heap allocations.
func TestResilienceHotPathAllocs(t *testing.T) {
	b := NewBreaker(5, sim.Millisecond)
	r := &Resilience{Timeout: sim.Millisecond, Retries: 2, Backoff: 100 * sim.Microsecond}
	rng := stats.NewRand(1)
	allocs := testing.AllocsPerRun(1000, func() {
		if b.Allow(0) {
			b.OnResult(0, true)
		}
		_ = r.retryDelay(1, rng)
	})
	if allocs != 0 {
		t.Fatalf("resilience hot path allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkBreakerAllowRecord times the breaker's no-fault hot path: one
// admission plus one successful outcome per op, at advancing times.
func BenchmarkBreakerAllowRecord(b *testing.B) {
	br := NewBreaker(5, 10*sim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i) * sim.Microsecond
		if br.Allow(now) {
			br.OnResult(now, true)
		}
	}
}

// defaultTestPolicy is a tight policy for sub-second test runs.
func defaultTestPolicy() Resilience {
	return Resilience{
		Timeout:        2 * sim.Millisecond,
		Retries:        2,
		Backoff:        200 * sim.Microsecond,
		BreakerFails:   5,
		BreakerOpenFor: 5 * sim.Millisecond,
	}
}

// TestResilientCallCrashRetryAndRecovery crashes the child mid-run: the
// parent must observe failures (retries exhausted, Request.Failed
// propagated) while the child is down, then recover after Restart.
func TestResilientCallCrashRetryAndRecovery(t *testing.T) {
	f := newTwoTier(t, 1.0)
	f.parent.Cfg.Resilience = defaultTestPolicy()

	var failedDuring, okAfter, okBefore int
	cp := f.m.Kernel.NewProc("cli")
	phase := 0 // 0 = before crash, 1 = during outage, 2 = after restart
	cp.Spawn("cli", func(th *kernel.Thread) {
		conn := th.Connect(f.m.Kernel, 9000)
		for i := 0; i < 60; i++ {
			th.Sleep(sim.Millisecond) // pace requests across the fault schedule
			req := &Request{Kind: 0, SentAt: th.Now()}
			th.Send(conn, 64, req)
			th.Recv(conn)
			switch {
			case req.Failed && phase == 1:
				failedDuring++
			case !req.Failed && phase == 0:
				okBefore++
			case !req.Failed && phase == 2:
				okAfter++
			}
		}
	})
	f.eng.Schedule(15*sim.Millisecond, func() {
		phase = 1
		f.child.Crash()
	})
	f.eng.Schedule(45*sim.Millisecond, func() {
		f.child.Restart()
		phase = 2
	})
	f.eng.RunUntil(30 * sim.Second)
	defer f.shutdown()

	if okBefore == 0 {
		t.Fatal("no successful requests before the crash")
	}
	if failedDuring == 0 {
		t.Fatal("no failed requests during the outage: crash not observed")
	}
	if okAfter == 0 {
		t.Fatal("no successful requests after restart: tier did not recover")
	}

	// Parent spans during the outage must carry the degradation tags.
	var sawRetry, sawDownError bool
	for _, s := range f.collector.Spans() {
		if s.Service != "parent" {
			continue
		}
		if s.Retries > 0 {
			sawRetry = true
		}
		if s.DownErrors > 0 && s.Failed {
			sawDownError = true
		}
	}
	if !sawRetry {
		t.Fatal("no parent span recorded a retry")
	}
	if !sawDownError {
		t.Fatal("no parent span recorded a downstream error")
	}
}

// TestResilientCallHedging makes the child slow enough to cross the hedge
// point: the parent sends a duplicate, the child serves both, and the spans
// record the hedged delivery.
func TestResilientCallHedging(t *testing.T) {
	f := newTwoTier(t, 1.0)
	f.parent.Cfg.Resilience = Resilience{
		Timeout:    20 * sim.Millisecond,
		HedgeAfter: 200 * sim.Microsecond,
	}
	f.child.PostWork = func(th *kernel.Thread, kind int) {
		th.Sleep(sim.Millisecond) // well past the hedge point
	}
	f.drive(20)
	defer f.shutdown()

	var hedged, parentRetryTags int
	for _, s := range f.collector.Spans() {
		if s.Service == "child" && s.Hedged {
			hedged++
		}
		if s.Service == "parent" && s.Retries > 0 {
			parentRetryTags++
		}
	}
	if hedged == 0 {
		t.Fatal("no child span served a hedged request")
	}
	if parentRetryTags == 0 {
		t.Fatal("no parent span tagged its hedge send")
	}
}

// TestResilientNoFaultClean checks the resilient path under
// zero faults completes every request cleanly: no retries, no errors, no
// failed requests — so turning the policy on does not degrade a healthy run.
func TestResilientNoFaultClean(t *testing.T) {
	f := newTwoTier(t, 1.0)
	f.parent.Cfg.Resilience = defaultTestPolicy()
	f.drive(50)
	defer f.shutdown()
	for _, s := range f.collector.Spans() {
		if s.Retries != 0 || s.DownErrors != 0 || s.Failed || s.BreakerOpen || s.Hedged {
			t.Fatalf("healthy run produced degraded span: %+v", s)
		}
	}
}

// TestBreakerTripsUnderOutage keeps the child down long enough that the
// parent's breaker opens and short-circuits calls (BreakerOpen-tagged spans
// with no retry cost).
func TestBreakerTripsUnderOutage(t *testing.T) {
	f := newTwoTier(t, 1.0)
	f.parent.Cfg.Resilience = Resilience{
		Timeout:        sim.Millisecond,
		Retries:        1,
		Backoff:        100 * sim.Microsecond,
		BreakerFails:   3,
		BreakerOpenFor: 50 * sim.Millisecond,
	}
	f.eng.Schedule(sim.Millisecond, func() { f.child.Crash() })
	f.drive(40)
	defer f.shutdown()

	trips := f.parent.breakers["child"].Trips
	if trips == 0 {
		t.Fatal("breaker never tripped during a sustained outage")
	}
	var shortCircuited int
	for _, s := range f.collector.Spans() {
		if s.Service == "parent" && s.BreakerOpen {
			shortCircuited++
		}
	}
	if shortCircuited == 0 {
		t.Fatal("no span recorded a breaker short-circuit")
	}
}
