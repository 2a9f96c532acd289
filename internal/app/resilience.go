package app

import (
	"ditto/internal/sim"
	"ditto/internal/stats"
)

// Resilience configures a tier's RPC survival policy: per-attempt timeouts,
// retries with exponential backoff and deterministic jitter, request hedging,
// a consecutive-failure circuit breaker, and queue-delay load shedding. The
// zero value is the plain blocking call (infinite Recv): it draws no random
// numbers and fails a call only when the reply itself reports a failure. All
// randomness (jitter) comes from the tier's own seeded stream, so degraded
// runs replay exactly.
type Resilience struct {
	// Timeout bounds each attempt: dial plus response wait. <= 0 disables
	// timeouts and retries: the call blocks until the reply arrives.
	Timeout sim.Time
	// Retries is the number of re-sends after the first attempt.
	Retries int
	// Backoff is the pre-retry delay base: retry k waits Backoff<<k, scaled
	// by a jitter factor in [0.5, 1).
	Backoff sim.Time
	// HedgeAfter, when > 0, duplicates an attempt that has not answered
	// within this delay and accepts whichever copy responds first.
	HedgeAfter sim.Time
	// BreakerFails consecutive downstream failures open the circuit for
	// BreakerOpenFor; while open, calls fail immediately. One probe is let
	// through after the window (half-open). 0 disables the breaker.
	BreakerFails   int
	BreakerOpenFor sim.Time
	// ShedAfter, when > 0, rejects a request that waited longer than this in
	// the server queue before being picked up — overload load shedding.
	ShedAfter sim.Time
}

// breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a consecutive-failure circuit breaker guarding one downstream
// edge of one tier.
type Breaker struct {
	failsToOpen int
	openFor     sim.Time

	state    int
	fails    int // consecutive failures while closed
	openedAt sim.Time
	Trips    int // times the breaker opened (including re-opens)
}

// NewBreaker builds a closed breaker; failsToOpen <= 0 builds one that never
// opens.
func NewBreaker(failsToOpen int, openFor sim.Time) *Breaker {
	return &Breaker{failsToOpen: failsToOpen, openFor: openFor}
}

// Allow reports whether a call may proceed at time now. While open it fails
// fast until openFor has elapsed, then admits a single half-open probe.
// ditto:noalloc
func (b *Breaker) Allow(now sim.Time) bool {
	if b.failsToOpen <= 0 {
		return true
	}
	switch b.state {
	case breakerOpen:
		if now-b.openedAt < b.openFor {
			return false
		}
		b.state = breakerHalfOpen
		return true
	case breakerHalfOpen:
		// One probe is already in flight; fail fast behind it.
		return false
	}
	return true
}

// OnResult books the outcome of an admitted call at time now.
// ditto:noalloc
func (b *Breaker) OnResult(now sim.Time, ok bool) {
	if b.failsToOpen <= 0 {
		return
	}
	if ok {
		b.state = breakerClosed
		b.fails = 0
		return
	}
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
		b.openedAt = now
		b.Trips++
		return
	}
	b.fails++
	if b.fails >= b.failsToOpen {
		b.state = breakerOpen
		b.openedAt = now
		b.fails = 0
		b.Trips++
	}
}

// Open reports whether the breaker is currently rejecting calls.
func (b *Breaker) Open() bool { return b.state == breakerOpen }

// retryDelay computes the pre-retry sleep before attempt k (k >= 1):
// exponential base with multiplicative jitter in [0.5, 1) drawn from the
// tier's deterministic stream.
// ditto:noalloc
func (r *Resilience) retryDelay(k int, rng *stats.Rand) sim.Time {
	if r.Backoff <= 0 {
		return 0
	}
	base := r.Backoff << uint(k-1)
	return sim.Time(float64(base) * (0.5 + 0.5*rng.Float64()))
}
