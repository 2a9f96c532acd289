package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1.0 {
		t.Fatalf("Second.Seconds() = %v", Second.Seconds())
	}
	if Millisecond.Millis() != 1.0 {
		t.Fatalf("Millisecond.Millis() = %v", Millisecond.Millis())
	}
	if FromSeconds(1.5) != Second+500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if FromSeconds(-1) != 0 {
		t.Fatalf("FromSeconds(-1) should clamp to 0")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{2 * Second, "2.000s"},
		{3 * Millisecond, "3.000ms"},
		{4 * Microsecond, "4.000us"},
		{5 * Nanosecond, "5.000ns"},
		{7, "7ps"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.After(10, func() {
		times = append(times, e.Now())
		e.After(5, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v", times)
	}
}

func TestEngineNegativeAfterClamps(t *testing.T) {
	e := NewEngine()
	ran := false
	e.After(-5, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("After(-5) should fire immediately")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.Schedule(5, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want 2 events", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %v, want 12", e.Now())
	}
	e.RunFor(3)
	if len(fired) != 3 || e.Now() != 15 {
		t.Fatalf("after RunFor(3): fired=%v now=%v", fired, e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestFiredAndPending(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Run()
	if e.Fired() != 2 || e.Pending() != 0 {
		t.Fatalf("Fired=%d Pending=%d", e.Fired(), e.Pending())
	}
}

// RunUntil with model-level cancellations interleaved between and inside
// windows fires exactly the surviving callbacks and still lands the clock on
// every requested boundary. The engine has no Cancel: a model that changes
// its mind clears its own flag and the stale callback returns early.
func TestRunUntilInterleavedCancellations(t *testing.T) {
	e := NewEngine()
	var fired []Time
	live := map[Time]bool{}
	for _, at := range []Time{5, 10, 15, 20, 25, 30} {
		at := at
		live[at] = true
		e.Schedule(at, func() {
			if live[at] {
				fired = append(fired, at)
			}
		})
	}
	// Cancel a future event from inside an earlier one.
	e.Schedule(6, func() { live[15] = false })
	e.RunUntil(12)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("window 1 fired %v, want [5 10]", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %v, want 12", e.Now())
	}
	// Cancel between windows.
	live[20] = false
	e.RunUntil(22)
	if len(fired) != 2 {
		t.Fatalf("window 2 fired %v, want nothing new (15, 20 cancelled)", fired)
	}
	if e.Now() != 22 {
		t.Fatalf("Now = %v, want 22 even with all window events cancelled", e.Now())
	}
	// Reschedule from inside a callback at Now() and later, mid-window.
	e.Schedule(24, func() {
		e.Schedule(e.Now(), func() { fired = append(fired, 24) })
		e.After(2, func() { fired = append(fired, 26) })
	})
	e.Run()
	want := []Time{5, 10, 24, 25, 26, 30}
	if len(fired) != len(want) {
		t.Fatalf("final fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("final fired %v, want %v", fired, want)
		}
	}
}

// Events live by value in the heap, so the slot an event vacates when it
// fires is reused by the next schedule: once the backing array has grown to
// the peak pending count, After+Step and a callback that immediately
// reschedules itself allocate nothing.
func TestPooledRescheduleInsideCallback(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	// Far-future background events keep the heap several levels deep.
	for i := 0; i < 64; i++ {
		e.Schedule(Second+Time(i), nop)
	}
	if a := testing.AllocsPerRun(1000, func() {
		e.After(1, nop)
		e.Step()
	}); a != 0 {
		t.Fatalf("After+Step on a warm heap: %v allocs/op, want 0", a)
	}
	count := 0
	var tick func()
	tick = func() {
		count++
		if count%10 != 0 {
			e.After(1, tick)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		e.After(1, tick)
		e.RunFor(100)
	}); a != 0 {
		t.Fatalf("self-rescheduling chain: %v allocs/run, want 0", a)
	}
	if count != 1010 {
		t.Fatalf("count = %d, want 1010 (101 runs of a 10-event chain)", count)
	}
	if e.Pending() != 64 {
		t.Fatalf("Pending = %d, want the 64 background events", e.Pending())
	}
}

// A callback that reschedules at the current instant reuses the slot its own
// event vacated; same-instant events must still fire FIFO, the rescheduled
// ones after everything already pending at that instant.
func TestPooledPreservesSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	next := 0
	var mk func(round int) func()
	mk = func(round int) func() {
		id := next
		next++
		return func() {
			order = append(order, id)
			if round < 2 {
				e.Schedule(e.Now(), mk(round+1))
			}
		}
	}
	for i := 0; i < 3; i++ {
		e.Schedule(5, mk(0))
	}
	e.Run()
	if len(order) != 9 {
		t.Fatalf("fired %d events, want 9: %v", len(order), order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant order broken: %v", order)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %v, want 5", e.Now())
	}
}

// Property: the firing sequence is exactly the schedule log stably sorted by
// time. Times come from a narrow range so ties are common, and callbacks
// schedule children at Now() and later while the run is in progress; seq
// follows schedule order, so (at, seq) order is the stable sort by at.
func TestEventOrderProperty(t *testing.T) {
	type sched struct {
		at Time
		id int
	}
	f := func(delays []uint8) bool {
		e := NewEngine()
		var log []sched
		var fired []int
		var add func(at Time, depth int, d uint8)
		add = func(at Time, depth int, d uint8) {
			id := len(log)
			log = append(log, sched{at, id})
			e.Schedule(at, func() {
				fired = append(fired, id)
				if depth < 2 && d&0x10 != 0 {
					// A child at Now() (d&3 == 0) or up to three later.
					add(e.Now()+Time(d&3), depth+1, d>>1)
				}
			})
		}
		for _, d := range delays {
			add(Time(d&7), 0, d)
		}
		e.Run()
		sort.SliceStable(log, func(i, j int) bool { return log[i].at < log[j].at })
		if len(fired) != len(log) {
			return false
		}
		for i := range log {
			if fired[i] != log[i].id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEngineScheduleFire is the engine hot-path baseline: one After
// plus the Step that fires it. Events live by value in the engine's heap, so
// the steady state is allocation-free.
func BenchmarkEngineScheduleFire(b *testing.B) {
	eng := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(Microsecond, func() {})
		eng.Step()
	}
}
