// Sharded conservative-parallel execution: a World partitions a simulation
// into per-machine shard engines and advances them concurrently in
// bulk-synchronous windows.
//
// The synchronization discipline is classic conservative PDES lookahead.
// Every cross-shard interaction in this repository is a network delivery, and
// the fabric guarantees a minimum one-way delay L (the cluster RTT/2, 50µs at
// the default 100µs RTT; loopback never crosses shards). So if the earliest
// pending event anywhere sits at time `next`, no shard can receive a
// cross-shard message earlier than `next + L`, and every shard may safely
// fire its local events in [next, next+L) without hearing from anyone.
//
// Determinism across worker widths is structural, not incidental:
//
//   - Within a window each shard runs serially in its own (at, seq) order,
//     exactly as a standalone Engine would.
//   - Cross-shard events are not injected directly; they are staged in
//     per-(dst, src) lanes. Each lane preserves the sender's firing order,
//     and the barrier merge schedules lanes in ascending source-shard order.
//     The destination heap then orders them by (at, seq), and seq follows
//     that merge order — a schedule that depends only on what each shard
//     did, never on when the OS ran it.
//   - The worker pool only decides which OS thread advances which shard;
//     it cannot reorder anything observable. Width 1 and width 64 therefore
//     produce byte-identical simulations.
package sim

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// crossEvent is one staged cross-shard callback.
type crossEvent struct {
	at Time
	fn func()
}

// World coordinates a set of shard engines under conservative windows.
// Construct with NewWorld, add shards with NewShard before the first run,
// then drive it with Run/RunUntil/RunFor exactly like an Engine. A World is
// itself single-driver: only the goroutine calling Run* may touch it.
type World struct {
	lookahead Time
	width     int
	shards    []*Engine
	running   bool
	now       Time

	// lanes[dst][src] stages cross-shard events between barriers; mu[dst]
	// serializes concurrent senders targeting the same destination.
	mu    []sync.Mutex
	lanes [][][]crossEvent
}

// NewWorld builds a world whose shards may run ahead of each other by up to
// lookahead — the minimum cross-shard one-way delay the fabric can produce.
// width caps how many shards advance concurrently; width 1 is fully serial
// and produces the same bytes as any other width.
func NewWorld(lookahead Time, width int) *World {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: world lookahead must be positive, got %v", lookahead))
	}
	if width < 1 {
		width = 1
	}
	return &World{lookahead: lookahead, width: width}
}

// NewShard creates an engine bound to this world. Shards must be created
// before the first Run* call.
func (w *World) NewShard() *Engine {
	if w.running {
		panic("sim: NewShard during run")
	}
	e := NewEngine()
	e.id = len(w.shards)
	e.world = w
	w.shards = append(w.shards, e)
	w.mu = nil // shard set changed; prepare() rebuilds the lanes
	return e
}

// Lookahead returns the world's conservative horizon.
func (w *World) Lookahead() Time { return w.lookahead }

// Width returns the worker cap.
func (w *World) Width() int { return w.width }

// Now returns the world's virtual time: the point every shard has reached.
func (w *World) Now() Time { return w.now }

// Pending sums not-yet-fired events across shards (staged cross events are
// already scheduled on their destination between runs, so nothing is missed).
func (w *World) Pending() int {
	n := 0
	for _, s := range w.shards {
		n += s.Pending()
	}
	return n
}

// Run fires events until no shard has any left.
func (w *World) Run() { w.run(0, false) }

// RunUntil fires events with time ≤ t on every shard, then aligns all shard
// clocks (and the world clock) to exactly t.
func (w *World) RunUntil(t Time) { w.run(t, true) }

// RunFor runs the world for a span of d from the current time.
func (w *World) RunFor(d Time) { w.RunUntil(w.now + d) }

func (w *World) prepare() {
	if len(w.mu) == len(w.shards) {
		return
	}
	n := len(w.shards)
	w.mu = make([]sync.Mutex, n)
	w.lanes = make([][][]crossEvent, n)
	for i := range w.lanes {
		w.lanes[i] = make([][]crossEvent, n)
	}
}

func (w *World) run(t Time, bounded bool) {
	w.prepare()
	w.running = true
	for {
		next, ok := w.minNext()
		if !ok || (bounded && next > t) {
			break
		}
		bound := next + w.lookahead
		if bounded && bound > t {
			// Final window before the deadline: t+1 still respects the
			// horizon (we only get here when next+lookahead > t) and makes
			// the exclusive bound include events at exactly t, matching
			// Engine.RunUntil's inclusive deadline.
			bound = t + 1
		}
		w.runWindow(bound)
		w.merge()
	}
	w.running = false
	if bounded {
		for _, s := range w.shards {
			if s.now < t {
				s.now = t
			}
		}
		if w.now < t {
			w.now = t
		}
	} else {
		// Drain mode: align everyone to the furthest shard so a later
		// bounded run resumes from a consistent clock.
		max := w.now
		for _, s := range w.shards {
			if s.now > max {
				max = s.now
			}
		}
		for _, s := range w.shards {
			if s.now < max {
				s.now = max
			}
		}
		w.now = max
	}
}

// minNext returns the earliest pending event time across shards.
func (w *World) minNext() (Time, bool) {
	var min Time
	ok := false
	for _, s := range w.shards {
		if at, has := s.nextAt(); has && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}

// runWindow advances every shard to the exclusive bound, spreading shards
// over up to width workers (see ForEach, whose join gives the driver a
// happens-before edge over everything each shard did, so the following
// merge reads staged lanes race-free).
//
// A window in which at most one shard has an event before bound runs
// inline on the driver: a shard with nothing before the bound cannot gain
// anything inside the window (cross-shard sends are staged until the
// merge), so its runWindow would be a no-op and spawning workers for it
// buys nothing.
func (w *World) runWindow(bound Time) {
	if w.width <= 1 || w.activeBefore(bound) <= 1 {
		for _, s := range w.shards {
			s.runWindow(bound)
		}
		return
	}
	// Shards share no mutable state inside a window: cross events go through
	// the mutex-guarded lanes.
	ForEach(len(w.shards), w.width, func(j int) { w.shards[j].runWindow(bound) })
}

// ForEach calls fn(i) for every i in [0, n) on up to width workers, each
// claiming the next index off an atomic counter, and returns once every
// call has returned. At width ≤ 1 (or n ≤ 1) it runs inline. It is the
// simulator's one claim-loop pool, for work items that share no mutable
// state: the World's shard windows and the clone phase's per-tier
// reductions. A panic in any call is re-raised on the caller's goroutine,
// with the worker's stack, once all workers have stopped — so a caller can
// recover it exactly as at width 1.
func ForEach(n, width int, fn func(i int)) {
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	var mu sync.Mutex
	var fault any
	for k := 0; k < width; k++ {
		wg.Add(1)
		// ditto:determinism-ok reviewed: claim-loop workers. Each index is
		// claimed by exactly one worker via the atomic counter, callers pass
		// items that share no mutable state, and wg.Wait joins every worker
		// before ForEach returns — scheduling order cannot leak into results.
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if fault == nil {
						fault = fmt.Sprintf("%v\n%s", r, debug.Stack())
					}
					mu.Unlock()
				}
			}()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if fault != nil {
		panic(fault)
	}
}

// activeBefore counts the shards with a pending event before bound,
// stopping at two: the caller only tells "at most one" from "several".
func (w *World) activeBefore(bound Time) int {
	active := 0
	for _, s := range w.shards {
		if at, has := s.nextAt(); has && at < bound {
			if active++; active > 1 {
				break
			}
		}
	}
	return active
}

// stage appends a cross-shard event to the destination's inbox lane for this
// source. The conservative contract is audited here: an event landing closer
// than one lookahead from the sender's clock could belong inside a window
// some shard has already executed past.
func (w *World) stage(src, dst *Engine, at Time, fn func()) {
	if at < src.now+w.lookahead {
		panic(fmt.Sprintf("sim: cross-shard event at %v violates lookahead %v from shard %d now %v",
			at, w.lookahead, src.id, src.now))
	}
	w.mu[dst.id].Lock()
	w.lanes[dst.id][src.id] = append(w.lanes[dst.id][src.id], crossEvent{at: at, fn: fn})
	w.mu[dst.id].Unlock()
}

// merge drains every staged lane into its destination shard's heap. Order is
// deterministic by construction: destinations ascending, then for each
// destination its source lanes ascending with each lane in send order. No
// sort is needed: the heap orders by (at, seq) and seq follows this schedule
// order, so same-instant deliveries keep lane order and anything else is
// ordered by time alone. Every delivery lies at or past the window bound
// (stage enforces at ≥ sender clock + lookahead), so it is never in the
// receiver's past. Runs only between windows, on the driver.
func (w *World) merge() {
	for dst, d := range w.shards {
		for src, lane := range w.lanes[dst] {
			for i, ev := range lane {
				d.Schedule(ev.at, ev.fn)
				lane[i] = crossEvent{}
			}
			w.lanes[dst][src] = lane[:0]
		}
	}
}
