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
	"container/heap"
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

// Event is a scheduled callback. Events are created by Engine.Schedule and
// Engine.After and may be cancelled until they fire. Events created by the
// handle-free ScheduleFunc/AfterFunc variants are recycled through the
// engine's free list and never escape.
type Event struct {
	at        Time
	seq       uint64
	fn        func()
	index     int // heap index, -1 once popped or cancelled
	cancelled bool
	fired     bool
	pooled    bool
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Cancelled reports whether Cancel prevented the event from firing. Events
// that already fired report false: firing and cancellation are mutually
// exclusive outcomes.
func (e *Event) Cancelled() bool { return e.cancelled }

// Fired reports whether the event's callback has run.
func (e *Event) Fired() bool { return e.fired }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine. An Engine is not safe for concurrent use: everything on
// one engine's timeline is single-goroutine by design, which is what makes it
// deterministic. A World (see shard.go) composes several engines — one per
// machine — and advances them concurrently inside conservative windows; each
// engine is still only ever touched by one goroutine at a time.
type Engine struct {
	now    Time
	events eventHeap
	seq    uint64
	fired  uint64
	// free recycles events scheduled through ScheduleFunc/AfterFunc. Those
	// events never escape to callers, so reusing their memory is safe; the
	// hot path (kernel wakeups, network deliveries — millions per run)
	// stops allocating one *Event per schedule.
	free []*Event
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
// clamping would hide it.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	return e.schedule(at, fn, false)
}

// After registers fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.schedule(e.now+d, fn, false)
}

// ScheduleFunc registers fn to run at absolute time at without returning a
// handle. The event cannot be cancelled or inspected, which lets the engine
// recycle its memory through a free list once it fires — use this on hot
// paths that never cancel.
func (e *Engine) ScheduleFunc(at Time, fn func()) {
	e.schedule(at, fn, true)
}

// AfterFunc registers fn to run d after the current time without returning
// a handle; see ScheduleFunc.
func (e *Engine) AfterFunc(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, fn, true)
}

func (e *Engine) schedule(at Time, fn func(), pooled bool) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	var ev *Event
	if n := len(e.free); pooled && n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = Event{at: at, seq: e.seq, fn: fn, pooled: true}
	} else {
		ev = &Event{at: at, seq: e.seq, fn: fn, pooled: pooled}
	}
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

// Cancel prevents ev from firing and reports whether this call actually
// stopped it. Cancelling a nil, already-cancelled or already-fired event is
// a no-op returning false; in particular a fired event keeps reporting
// Cancelled() == false, so history is never misreported.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.cancelled || ev.fired || ev.index < 0 {
		return false
	}
	ev.cancelled = true
	heap.Remove(&e.events, ev.index)
	return true
}

// Step fires the next pending event, advancing the clock to its time. It
// reports whether an event was fired. Cancelled events need no filtering
// here: Cancel heap.Removes the event, so a cancelled event is never in the
// heap (TestCancelNeverPopped pins the invariant).
func (e *Engine) Step() bool {
	if len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*Event)
		e.now = ev.at
		e.fired++
		fn := ev.fn
		ev.fired = true
		if ev.pooled {
			// Release before running fn so an immediate reschedule inside
			// the callback reuses this slot. Pooled events have no outside
			// handle, so nothing can observe the reuse.
			ev.fn = nil
			e.free = append(e.free, ev)
		}
		fn()
		return true
	}
	return false
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time ≤ t, then advances the clock to exactly t.
// Events scheduled for later remain pending. As in Step, no cancelled-event
// filtering is needed: Cancel removes events from the heap.
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
// degenerates to a plain handle-free schedule on dst.
func (e *Engine) ScheduleCross(dst *Engine, at Time, fn func()) {
	if dst == e || e.world == nil || e.world != dst.world || !e.world.running {
		dst.schedule(at, fn, true)
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
