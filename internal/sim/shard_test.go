package sim

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestFromSecondsEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		in   float64
		want Time
	}{
		{"zero", 0, 0},
		{"one", 1, Second},
		{"nan", math.NaN(), 0},
		{"+inf", math.Inf(1), 1 << 62},
		{"-inf", math.Inf(-1), 0},
		{"negative", -3.5, 0},
		{"negative-tiny", -1e-300, 0},
		{"overflow", 1e30, 1 << 62},
		{"saturation-edge", float64(1<<62) / float64(Second), 1 << 62},
		{"micro", 1e-6, Microsecond},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := FromSeconds(c.in); got != c.want {
				t.Fatalf("FromSeconds(%v) = %d, want %d", c.in, int64(got), int64(c.want))
			}
		})
	}
}

// buildRaceWorld wires the satellite-3 fixture: shards A and B race
// deliveries into shard C at identical virtual times, with C also running
// local events at those instants. Returns the world and a log capturing C's
// observed order.
func buildRaceWorld(width int) (*World, *[]string) {
	const lookahead = 50 * Microsecond
	w := NewWorld(lookahead, width)
	a := w.NewShard()
	b := w.NewShard()
	c := w.NewShard()
	log := &[]string{}
	obs := func(src string, i int) func() {
		return func() {
			*log = append(*log, fmt.Sprintf("%v %s#%d", c.Now(), src, i))
		}
	}
	// Both senders fire at the same instants and target the same arrival
	// times in C; C has its own local events at the same times.
	for i := 0; i < 40; i++ {
		i := i
		at := Time(i) * 10 * Microsecond
		a.Schedule(at, func() { a.ScheduleCross(c, a.Now()+lookahead, obs("a", i)) })
		b.Schedule(at, func() { b.ScheduleCross(c, b.Now()+lookahead, obs("b", i)) })
		c.Schedule(at+lookahead, obs("c", i))
		// Second-hop traffic: C bounces an ack back to A, which forwards to
		// B, exercising chained cross-shard edges.
		c.Schedule(at, func() {
			c.ScheduleCross(a, c.Now()+lookahead, func() {
				a.ScheduleCross(b, a.Now()+lookahead, func() {})
			})
		})
	}
	return w, log
}

func TestCrossShardRaceDeterministicAcrossWidths(t *testing.T) {
	var want string
	for _, width := range []int{1, 2, 8} {
		for rep := 0; rep < 3; rep++ {
			w, log := buildRaceWorld(width)
			w.RunUntil(2 * Millisecond)
			got := strings.Join(*log, "\n")
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("width %d rep %d diverged:\n got: %.200s\nwant: %.200s", width, rep, got, want)
			}
		}
	}
	if want == "" {
		t.Fatal("fixture produced no observations")
	}
}

func TestWorldRunUntilAlignsClocks(t *testing.T) {
	w := NewWorld(50*Microsecond, 4)
	a := w.NewShard()
	b := w.NewShard()
	firedAtDeadline := false
	a.Schedule(Millisecond, func() { firedAtDeadline = true })
	w.RunUntil(Millisecond)
	if !firedAtDeadline {
		t.Fatal("event at exactly the deadline did not fire")
	}
	if w.Now() != Millisecond || a.Now() != Millisecond || b.Now() != Millisecond {
		t.Fatalf("clocks not aligned: world %v a %v b %v", w.Now(), a.Now(), b.Now())
	}
	// Events beyond the deadline stay pending and fire on the next run.
	later := false
	a.Schedule(3*Millisecond, func() { later = true })
	w.RunUntil(2 * Millisecond)
	if later {
		t.Fatal("event beyond deadline fired early")
	}
	w.RunUntil(3 * Millisecond)
	if !later {
		t.Fatal("pending event did not fire on resumed run")
	}
}

// goid returns the calling goroutine's id, read from its stack header
// ("goroutine N [running]:").
func goid() string {
	b := make([]byte, 64)
	return strings.Fields(string(b[:runtime.Stack(b, false)]))[1]
}

// A window in which only one shard has work runs on the driver goroutine;
// a window with two active shards spreads them over workers.
func TestWorldSingleActiveWindowRunsInline(t *testing.T) {
	w := NewWorld(50*Microsecond, 2)
	a := w.NewShard()
	b := w.NewShard()
	var alone, shared string
	a.Schedule(10*Microsecond, func() { alone = goid() })
	a.Schedule(Millisecond, func() { shared = goid() })
	b.Schedule(Millisecond, func() {})
	driver := goid()
	w.Run()
	if alone != driver {
		t.Fatalf("single-active window ran on goroutine %s, not the driver %s", alone, driver)
	}
	if shared == driver {
		t.Fatalf("two-active window ran on the driver goroutine %s", driver)
	}
}

func TestWorldLookaheadViolationPanics(t *testing.T) {
	w := NewWorld(50*Microsecond, 2)
	a := w.NewShard()
	b := w.NewShard()
	a.Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("cross-shard schedule inside the lookahead horizon did not panic")
			}
		}()
		a.ScheduleCross(b, a.Now()+Microsecond, func() {})
	})
	w.Run()
}

func TestScheduleCrossOutsideRunIsDirect(t *testing.T) {
	w := NewWorld(50*Microsecond, 2)
	a := w.NewShard()
	b := w.NewShard()
	// Setup time: the world is idle, so even a sub-lookahead cross schedule
	// goes straight onto the destination heap.
	hit := false
	a.ScheduleCross(b, Nanosecond, func() { hit = true })
	w.RunUntil(Microsecond)
	if !hit {
		t.Fatal("setup-time cross schedule did not fire")
	}
}

// TestWorldMergeOrder pins the exact order in which one destination fires
// deliveries merged at a barrier: by time; at one instant, local events
// (scheduled before the merge) first, then merged deliveries by ascending
// source shard, each source in send order — including a lane whose sends
// arrive in decreasing time and a delivery at exactly the window bound.
func TestWorldMergeOrder(t *testing.T) {
	const lookahead = 10
	for _, width := range []int{1, 2, 3} {
		w := NewWorld(lookahead, width)
		a := w.NewShard()
		b := w.NewShard()
		d := w.NewShard()
		var got []string
		obs := func(name string) func() {
			return func() { got = append(got, fmt.Sprintf("%d:%s", d.Now(), name)) }
		}
		d.Schedule(20, obs("d-setup"))
		d.Schedule(25, obs("d-setup"))
		d.Schedule(5, func() { d.Schedule(20, obs("d-window")) })
		a.Schedule(0, func() {
			a.ScheduleCross(d, 20, obs("a0"))
			a.ScheduleCross(d, 30, obs("a1"))
			a.ScheduleCross(d, 25, obs("a2"))
			a.ScheduleCross(d, 20, obs("a3"))
			a.ScheduleCross(d, 10, obs("a4"))
		})
		b.Schedule(0, func() { b.ScheduleCross(d, 25, obs("b0")) })
		b.Schedule(3, func() { b.ScheduleCross(d, 20, obs("b1")) })
		w.Run()
		want := "10:a4 20:d-setup 20:d-window 20:a0 20:a3 20:b1 25:d-setup 25:a2 25:b0 30:a1"
		if s := strings.Join(got, " "); s != want {
			t.Fatalf("width %d fired\n %s\nwant\n %s", width, s, want)
		}
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, width := range []int{1, 2, 8} {
		hits := make([]int, 5)
		ForEach(len(hits), width, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("width %d: index %d ran %d times", width, i, h)
			}
		}
	}
}

// A worker's panic surfaces on the caller, where it can be recovered, as it
// would at width 1.
func TestForEachReraisesWorkerPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "boom at 3") {
			t.Fatalf("recovered %v, want the worker's panic", r)
		}
	}()
	ForEach(4, 2, func(i int) {
		if i == 3 {
			panic(fmt.Sprintf("boom at %d", i))
		}
	})
}
