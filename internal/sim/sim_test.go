package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("final time: got %v want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("event order wrong: %v", order)
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(5, func() {
		fired = append(fired, e.Now())
		e.Schedule(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("nested schedule times: %v", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	h := e.Schedule(10, func() { ran = true })
	h.Cancel()
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if e.Now() != 0 {
		// Cancelled events still advance nothing.
		t.Fatalf("clock moved for cancelled event: %v", e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{5, 15, 25} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(20)
	if e.Now() != 20 {
		t.Fatalf("clock: got %v want 20", e.Now())
	}
	if len(fired) != 2 {
		t.Fatalf("fired: %v", fired)
	}
	e.Run()
	if len(fired) != 3 || e.Now() != 25 {
		t.Fatalf("after full run: fired=%v now=%v", fired, e.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestScheduleAt(t *testing.T) {
	e := NewEngine()
	var at Time
	e.ScheduleAt(42, func() { at = e.Now() })
	e.Run()
	if at != 42 {
		t.Fatalf("ScheduleAt fired at %v", at)
	}
}

func TestResourceSerialises(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var done []Time
	for i := 0; i < 3; i++ {
		r.Use(10, func() { done = append(done, e.Now()) })
	}
	e.Run()
	want := []Time{10, 20, 30}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("completion %d: got %v want %v (capacity-1 resource must serialise)", i, done[i], w)
		}
	}
	if r.Busy != 30 {
		t.Fatalf("busy accounting: got %v want 30", r.Busy)
	}
}

func TestResourceParallelCapacity(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var done []Time
	for i := 0; i < 4; i++ {
		r.Use(10, func() { done = append(done, e.Now()) })
	}
	e.Run()
	// Two at a time: completions at 10,10,20,20.
	want := []Time{10, 10, 20, 20}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("completion %d: got %v want %v", i, done[i], w)
		}
	}
}

func TestResourceReleasePanicsWhenIdle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on release of idle resource")
		}
	}()
	e := NewEngine()
	NewResource(e, 1).Release()
}

func TestPipeTransferTiming(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 100, 0) // 100 B/s
	var doneAt Time
	p.Transfer(50, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != Seconds(0.5) {
		t.Fatalf("transfer time: got %v want 0.5s", doneAt)
	}
	if p.Transferred != 50 {
		t.Fatalf("transferred bytes: %d", p.Transferred)
	}
}

func TestPipeSerialisesWithLatency(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1000, Millisecond)
	var times []Time
	p.Transfer(1000, func() { times = append(times, e.Now()) })
	p.Transfer(1000, func() { times = append(times, e.Now()) })
	e.Run()
	first := Second + Millisecond
	if times[0] != first || times[1] != 2*first {
		t.Fatalf("pipe serialisation wrong: %v", times)
	}
}

// Property: for random event sets, the engine fires every event exactly
// once, in non-decreasing time order.
func TestEngineMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		e := NewEngine()
		n := 1 + rng.Intn(50)
		fired := 0
		last := Time(-1)
		ok := true
		for i := 0; i < n; i++ {
			e.Schedule(Time(rng.Intn(1000)), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				fired++
			})
		}
		e.Run()
		return ok && fired == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a capacity-c resource never exceeds c units in use and
// completes all work.
func TestResourceInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		e := NewEngine()
		c := 1 + rng.Intn(4)
		r := NewResource(e, c)
		n := 1 + rng.Intn(40)
		completed := 0
		ok := true
		for i := 0; i < n; i++ {
			r.Use(Time(1+rng.Intn(100)), func() { completed++ })
			if r.InUse() > c {
				ok = false
			}
		}
		e.Run()
		return ok && completed == n && r.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	if ToSeconds(Seconds(2.5)) != 2.5 {
		t.Fatalf("seconds round trip: %v", ToSeconds(Seconds(2.5)))
	}
}

// recorder is a typed-event target that logs every firing.
type recorder struct{ fired []int }

func (r *recorder) Fire(kind int, _ any) { r.fired = append(r.fired, kind) }

// TestStaleHandleIgnoredAfterSlotReuse: once an event fired or was
// cancelled, its slot serves the next event, and the old Handle must not
// cancel that newcomer.
func TestStaleHandleIgnoredAfterSlotReuse(t *testing.T) {
	e := NewEngine()
	var rec recorder
	fired := e.ScheduleEvent(1, &rec, 1, nil)
	e.Step()
	reused := e.ScheduleEvent(1, &rec, 2, nil)
	if reused.slot != fired.slot {
		t.Fatalf("fired event's slot %d not reused (got %d)", fired.slot, reused.slot)
	}
	fired.Cancel()
	cancelled := e.ScheduleEvent(1, &rec, 3, nil)
	cancelled.Cancel()
	again := e.ScheduleEvent(1, &rec, 4, nil)
	if again.slot != cancelled.slot {
		t.Fatalf("cancelled event's slot %d not reused (got %d)", cancelled.slot, again.slot)
	}
	cancelled.Cancel()
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after stale cancels, want 2", e.Pending())
	}
	e.Run()
	if len(rec.fired) != 3 || rec.fired[0] != 1 || rec.fired[1] != 2 || rec.fired[2] != 4 {
		t.Fatalf("fired kinds %v, want [1 2 4]", rec.fired)
	}
}

// TestCancelIsIdempotent: a second Cancel, and a Cancel after the event
// fired, change nothing — in particular not the Pending count the park
// decision reads.
func TestCancelIsIdempotent(t *testing.T) {
	e := NewEngine()
	ran := 0
	h := e.Schedule(5, func() { ran++ })
	keep := e.Schedule(9, func() { ran++ })
	h.Cancel()
	h.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after double cancel, want 1", e.Pending())
	}
	e.Step()
	keep.Cancel()
	Handle{}.Cancel()
	if e.Pending() != 0 || ran != 1 || e.Now() != 9 {
		t.Fatalf("Pending %d, ran %d, now %v; want 0, 1, 9", e.Pending(), ran, e.Now())
	}
	if e.Step() {
		t.Fatal("a cancelled event fired")
	}
	keep.Cancel() // after the drained engine dropped its tables
	e.Schedule(1, func() { ran++ })
	keep.Cancel()
	if e.Run(); ran != 2 {
		t.Fatalf("an event scheduled after the drain ran %d times", ran-1)
	}
}

// TestPendingExact follows Pending through schedules, cancels, firings
// and nested scheduling.
func TestPendingExact(t *testing.T) {
	e := NewEngine()
	check := func(want int) {
		t.Helper()
		if got := e.Pending(); got != want {
			t.Fatalf("Pending = %d, want %d", got, want)
		}
	}
	a := e.Schedule(10, func() {})
	e.Schedule(20, func() {
		check(1)
		e.Schedule(0, func() {})
		check(2)
	})
	c := e.Schedule(30, func() {})
	check(3)
	a.Cancel()
	check(2)
	e.Step() // the 20 event, which schedules one more
	check(2)
	c.Cancel()
	check(1)
	e.Step()
	check(0)
	if e.Step() {
		t.Fatal("Step reported an event on an empty schedule")
	}
}

// TestRunUntilSkipsCancelledHeads: cancelled events at the head of the
// heap neither fire nor stop RunUntil from reaching the live events
// behind them.
func TestRunUntilSkipsCancelledHeads(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(1, func() { fired = append(fired, e.Now()) }).Cancel()
	e.Schedule(2, func() { fired = append(fired, e.Now()) }).Cancel()
	e.Schedule(5, func() { fired = append(fired, e.Now()) })
	e.Schedule(25, func() { fired = append(fired, e.Now()) }).Cancel()
	e.Schedule(30, func() { fired = append(fired, e.Now()) })
	e.RunUntil(20)
	if len(fired) != 1 || fired[0] != 5 || e.Now() != 20 || e.Pending() != 1 {
		t.Fatalf("fired %v, now %v, pending %d; want [5], 20, 1", fired, e.Now(), e.Pending())
	}
	e.RunUntil(40)
	if len(fired) != 2 || fired[1] != 30 || e.Now() != 40 || e.Pending() != 0 {
		t.Fatalf("fired %v, now %v, pending %d; want [5 30], 40, 0", fired, e.Now(), e.Pending())
	}
}

// TestTypedAndClosureEventsFIFO: typed and closure events at the same
// instant fire in the order they were scheduled.
func TestTypedAndClosureEventsFIFO(t *testing.T) {
	e := NewEngine()
	var rec recorder
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			e.ScheduleEvent(7, &rec, i, nil)
		} else {
			i := i
			e.Schedule(7, func() { rec.fired = append(rec.fired, i) })
		}
	}
	e.Run()
	if len(rec.fired) != 6 {
		t.Fatalf("fired %d events, want 6", len(rec.fired))
	}
	for i, v := range rec.fired {
		if v != i {
			t.Fatalf("same-time typed and closure events not FIFO: %v", rec.fired)
		}
	}
}

// TestScheduleOverflowPanics: a delay that would carry the firing time
// past the largest Time is refused with its own message, instead of
// wrapping into the past.
func TestScheduleOverflowPanics(t *testing.T) {
	e := NewEngine()
	e.RunUntil(Second)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "overflows virtual time") {
			t.Fatalf("panic %q, want the overflow message", msg)
		}
	}()
	e.Schedule(Time(math.MaxInt64), func() {})
}

// TestScheduleStepAllocatesNothing: in steady state, with the engine's
// tables grown, scheduling and firing an event allocates nothing — typed
// or closure (the closure made once, outside the loop).
func TestScheduleStepAllocatesNothing(t *testing.T) {
	e := NewEngine()
	var rec recorder
	rec.fired = make([]int, 0, 1)
	for i := 0; i < 64; i++ {
		e.Schedule(Time(1e12+i), func() {}) // a standing backlog
	}
	arg := &rec
	typed := testing.AllocsPerRun(1000, func() {
		e.ScheduleEvent(1, &rec, 1, arg)
		e.Step()
		rec.fired = rec.fired[:0]
	})
	fn := func() {}
	closure := testing.AllocsPerRun(1000, func() {
		e.Schedule(1, fn)
		e.Step()
	})
	if typed != 0 || closure != 0 {
		t.Fatalf("allocs per Schedule+Step: typed %v, closure %v; want 0 and 0", typed, closure)
	}
}

// modelEvent is one event of the reference model below.
type modelEvent struct {
	at        Time
	seq       int
	cancelled bool
	fired     bool
}

// Property: under random interleavings of typed and closure schedules,
// cancels (including stale ones) and steps, the engine fires exactly the
// events a naive reference model fires, in the same order and at the same
// times, and Pending always equals the model's count of live events.
func TestEngineMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		e := NewEngine()
		var model []*modelEvent
		var handles []Handle
		var got []int
		var rec recorder
		live := func() int {
			n := 0
			for _, m := range model {
				if !m.cancelled && !m.fired {
					n++
				}
			}
			return n
		}
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // schedule
				id := len(model)
				d := Time(rng.Intn(20))
				model = append(model, &modelEvent{at: e.Now() + d, seq: id})
				if rng.Intn(2) == 0 {
					handles = append(handles, e.ScheduleEvent(d, &rec, id, nil))
				} else {
					handles = append(handles, e.Schedule(d, func() { got = append(got, id) }))
				}
			case r < 7 && len(handles) > 0: // cancel any handle, possibly stale
				id := rng.Intn(len(handles))
				handles[id].Cancel()
				if !model[id].fired {
					model[id].cancelled = true
				}
			default: // step
				var next *modelEvent
				for _, m := range model {
					if m.cancelled || m.fired {
						continue
					}
					if next == nil || m.at < next.at || (m.at == next.at && m.seq < next.seq) {
						next = m
					}
				}
				stepped := e.Step()
				for _, k := range rec.fired {
					got = append(got, k)
				}
				rec.fired = rec.fired[:0]
				if next == nil {
					if stepped {
						return false
					}
					continue
				}
				next.fired = true
				if !stepped || len(got) == 0 || got[len(got)-1] != next.seq || e.Now() != next.at {
					return false
				}
			}
			if e.Pending() != live() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEngineScheduleStep schedules and fires one event per op behind
// a standing backlog of 64 pending events, so each op pays a heap push and
// pop at that depth. "typed" schedules a ScheduleEvent with a pointer
// argument; "closure" schedules a fresh closure over a counter, the way a
// Schedule caller does.
func BenchmarkEngineScheduleStep(b *testing.B) {
	const backlog = 64
	setup := func() *Engine {
		e := NewEngine()
		for i := 0; i < backlog; i++ {
			e.Schedule(Time(i*31%97), func() {})
		}
		return e
	}
	b.Run("typed", func(b *testing.B) {
		e := setup()
		var rec recorder
		rec.fired = make([]int, 0, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ScheduleEvent(Time(i%97), &rec, 1, &rec)
			e.Step()
			rec.fired = rec.fired[:0]
		}
	})
	b.Run("closure", func(b *testing.B) {
		e := setup()
		n := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Schedule(Time(i%97), func() { n++ })
			e.Step()
		}
	})
}
