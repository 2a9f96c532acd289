// Package sim implements the deterministic discrete-event simulation engine
// that every substrate in this repository runs on.
//
// Virtual time is counted in integer picoseconds so that sub-nanosecond CPU
// cycle times (a 3.5GHz core has a 286ps cycle) are represented exactly and
// runs are reproducible bit-for-bit from a seed. Events scheduled for the
// same instant fire in scheduling order (FIFO), which keeps multi-component
// interactions deterministic.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in picoseconds since the start of the
// simulation. The zero value is the simulation epoch.
type Time int64

// Duration units. A Duration is also a Time; the engine does not distinguish
// points from spans beyond documentation.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// FromSeconds converts floating-point seconds to a Time, saturating on
// overflow rather than wrapping. NaN maps to 0: it fails every ordered
// comparison, so without an explicit test it would fall through to an
// undefined float→int conversion.
func FromSeconds(s float64) Time {
	v := s * float64(Second)
	if math.IsNaN(v) {
		return 0
	}
	if v > float64(1<<62) {
		return Time(1 << 62)
	}
	if v < 0 {
		return 0
	}
	return Time(v)
}

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// event is one scheduled callback, stored by value in the engine's heap.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before reports whether a fires ahead of b: earlier time first, then
// scheduling order, which makes same-instant events FIFO.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine. An Engine is not safe for concurrent use: everything on
// one engine's timeline is single-goroutine by design, which is what makes it
// deterministic. A World (see shard.go) composes several engines — one per
// machine — and advances them concurrently inside conservative windows; each
// engine is still only ever touched by one goroutine at a time.
type Engine struct {
	now Time
	// events is a binary min-heap ordered by (at, seq). Events live in it by
	// value, so once the backing array has grown to the peak number of
	// pending events, scheduling and firing allocate nothing.
	events []event
	seq    uint64
	fired  uint64
	// id and world bind a shard engine to its World; both stay zero for a
	// standalone engine.
	id    int
	world *World
}

// NewEngine returns an empty engine positioned at the simulation epoch.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled and not yet fired.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule registers fn to run at absolute time at. Scheduling in the past
// (at < Now) panics: it always indicates a modeling bug, and silently
// clamping would hide it. A scheduled event cannot be cancelled; a model
// that may change its mind checks its own state when the callback runs.
//
// ditto:noalloc
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panicPast(at, e.now)
	}
	ev := event{at: at, seq: e.seq, fn: fn}
	e.seq++
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// panicPast is the cold failure path of Schedule, hoisted behind noinline so
// the formatted message stays out of the noalloc-gated hot path.
//
//go:noinline
func panicPast(at, now Time) {
	panic(fmt.Sprintf("sim: schedule at %v before now %v", at, now))
}

// After registers fn to run d after the current time. A negative d is
// treated as zero.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, fn)
}

// Step fires the next pending event, advancing the clock to its time. It
// reports whether an event was fired. The event leaves the heap before its
// callback runs, so the callback may schedule freely.
//
// ditto:noalloc
func (e *Engine) Step() bool {
	h := e.events
	n := len(h) - 1
	if n < 0 {
		return false
	}
	top, last := h[0], h[n]
	h[n] = event{} // release the closure for the collector
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	e.events = h
	e.now = top.at
	e.fired++
	top.fn()
	return true
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time ≤ t, then advances the clock to exactly t.
// Events scheduled for later remain pending.
func (e *Engine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor runs the simulation for a span of d from the current time.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// ScheduleCross registers fn at absolute time at on dst's timeline. When both
// engines are shards of the same running World, the event is staged in the
// destination's ordered inbox and merged at the next window barrier — the
// only way one shard may touch another's future. Outside a running World
// (same engine, standalone engines, or setup time between World runs) it
// degenerates to a plain Schedule on dst.
func (e *Engine) ScheduleCross(dst *Engine, at Time, fn func()) {
	if dst == e || e.world == nil || e.world != dst.world || !e.world.running {
		dst.Schedule(at, fn)
		return
	}
	e.world.stage(e, dst, at, fn)
}

// nextAt reports the time of the earliest pending event.
func (e *Engine) nextAt() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// runWindow fires every pending event strictly before bound. The bound is
// exclusive so a window [next, next+lookahead) can never fire an event that
// a not-yet-merged cross-shard message (which always lands at ≥ now +
// lookahead) should have preceded.
func (e *Engine) runWindow(bound Time) {
	for len(e.events) > 0 && e.events[0].at < bound {
		e.Step()
	}
}
