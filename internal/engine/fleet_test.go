package engine

import (
	"testing"

	"legato/internal/power"
)

// Failing a device the fleet was never built with must change nothing: no
// lost mark for an ID Devices does not list, no capacity, no signal.
func TestFleetFailUnknownDevice(t *testing.T) {
	devs := testFleet()
	f := NewFleet(devs)
	l := power.NewLedger(0, devs, power.RaceToIdle)
	f.AttachPower(l)
	ch := f.Changed()
	f.Fail("dev/ghost")
	if f.Lost("dev/ghost") {
		t.Fatal("unknown device reported lost")
	}
	for _, id := range f.Devices() {
		if id == "dev/ghost" {
			t.Fatal("unknown device listed")
		}
	}
	if c := f.Capacity("dev/ghost"); c != 0 {
		t.Fatalf("unknown device capacity %d", c)
	}
	select {
	case <-ch:
		t.Fatal("failing an unknown device signalled Changed")
	default:
	}
	if l.Lost("dev/ghost") || l.IdleWatts() != 15 {
		t.Fatalf("power ledger changed: lost=%v idle=%v", l.Lost("dev/ghost"), l.IdleWatts())
	}
}

// Releases and capacity changes that nobody parks on allocate nothing: the
// generation channel is made only when Changed hands one out.
func TestFleetWakeAllocatesNothingWithoutWaiter(t *testing.T) {
	f := NewFleet(testFleet())
	if n := testing.AllocsPerRun(200, func() {
		if !f.TryAcquire("dev/cpu", 2) {
			t.Fatal("acquire refused")
		}
		f.Release("dev/cpu", 2)
	}); n != 0 {
		t.Fatalf("TryAcquire+Release allocated %v times per run", n)
	}
	if n := testing.AllocsPerRun(200, func() { f.SetCapacity("dev/fpga", 4) }); n != 0 {
		t.Fatalf("SetCapacity allocated %v times per run", n)
	}
}

// A channel taken from Changed is closed by the next release, however many
// releases went by with no waiter before it was taken; the next Changed
// then hands out a fresh, open channel.
func TestFleetChangedSurvivesIdleReleases(t *testing.T) {
	f := NewFleet(testFleet())
	for i := 0; i < 1000; i++ {
		f.TryAcquire("dev/cpu", 1)
		f.Release("dev/cpu", 1)
	}
	ch := f.Changed()
	if again := f.Changed(); again != ch {
		t.Fatal("a second waiter got a different channel before any change")
	}
	select {
	case <-ch:
		t.Fatal("Changed closed before any release")
	default:
	}
	f.TryAcquire("dev/cpu", 1)
	f.Release("dev/cpu", 1)
	select {
	case <-ch:
	default:
		t.Fatal("release did not close the taken channel")
	}
	next := f.Changed()
	select {
	case <-next:
		t.Fatal("the channel after a wake is already closed")
	default:
	}
	f.SetCapacity("dev/cpu", 6)
	select {
	case <-next:
	default:
		t.Fatal("SetCapacity did not close the taken channel")
	}
}

// BenchmarkFleetAcquireRelease measures one admission round trip with no
// parked waiter: TryAcquire, a lock-free Capacity read and Release.
func BenchmarkFleetAcquireRelease(b *testing.B) {
	f := NewFleet(testFleet())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if f.Capacity("dev/cpu") < 1 || !f.TryAcquire("dev/cpu", 1) {
			b.Fatal("acquire refused")
		}
		f.Release("dev/cpu", 1)
	}
}
