package taskrt_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"legato/internal/engine"
	"legato/internal/hw"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// countingFleet is a real Fleet that counts the change channels taken.
type countingFleet struct {
	*engine.Fleet
	changed atomic.Int64
}

func (c *countingFleet) Changed() <-chan struct{} {
	c.changed.Add(1)
	return c.Fleet.Changed()
}

// A runtime that never stalls never takes a change channel.
func TestNoChangedWithoutStall(t *testing.T) {
	ref := cloudDevices(t, sim.NewEngine())
	adm := &countingFleet{Fleet: engine.NewFleet(ref)}
	eng := sim.NewEngine()
	rt := taskrt.New(eng, hw.Mirror(eng, ref), taskrt.MinEnergy)
	rt.SetAdmission(adm)
	goldenGraph(t, rt, 7)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if n := adm.changed.Load(); n != 0 {
		t.Fatalf("took %d change channels without a stall", n)
	}
}

// parkedRun starts a one-task run whose only device is fully held by a
// foreign grant and returns once the runtime has stalled twice: on the
// refusal and on the retry it makes after taking the change channel, just
// before it parks.
func parkedRun(ctx context.Context, t *testing.T) (*countingFleet, <-chan error, *taskrt.Result) {
	t.Helper()
	spec := hw.Spec{Name: "fpga", Class: hw.FPGA, Cores: 4, GOPS: 120, IdleWatts: 5, PeakWatts: 25}
	ref := []*hw.Device{hw.NewDevice(sim.NewEngine(), "fpga0", spec)}
	adm := &countingFleet{Fleet: engine.NewFleet(ref)}
	if !adm.TryAcquire("fpga0", 4) {
		t.Fatal("foreign grant refused")
	}
	eng := sim.NewEngine()
	rt := taskrt.New(eng, hw.Mirror(eng, ref), taskrt.MinTime)
	rt.SetAdmission(adm)
	if err := rt.Submit(taskrt.Task{Name: "t", Gops: 30, Cores: 4}); err != nil {
		t.Fatal(err)
	}
	res := new(taskrt.Result)
	done := make(chan error, 1)
	go func() {
		r, err := rt.RunContext(ctx)
		if r != nil {
			*res = *r
		}
		done <- err
	}()
	for end := time.Now().Add(10 * time.Second); adm.Stalls() < 2; {
		if time.Now().After(end) {
			t.Fatalf("runtime stalled %d times, want 2", adm.Stalls())
		}
		time.Sleep(50 * time.Microsecond)
	}
	select {
	case err := <-done:
		t.Fatalf("run ended while its device was held: %v", err)
	default:
	}
	return adm, done, res
}

// A parked runtime wakes on the foreign release and runs its task; the park
// took exactly one change channel.
func TestParkWakesOnForeignRelease(t *testing.T) {
	adm, done, res := parkedRun(context.Background(), t)
	adm.Release("fpga0", 4)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || res.Records[0].Device != "fpga0" || res.Records[0].End <= res.Records[0].Start {
		t.Fatalf("records %+v", res.Records)
	}
	if n := adm.changed.Load(); n != 1 {
		t.Fatalf("took %d change channels for one park, want 1", n)
	}
	if n := adm.InUse("fpga0"); n != 0 {
		t.Fatalf("%d cores still held", n)
	}
}

// Cancelling the context of a parked runtime ends the run with the
// context's error and leaves the foreign grant alone.
func TestParkHonoursCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	adm, done, _ := parkedRun(ctx, t)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := adm.InUse("fpga0"); n != 4 {
		t.Fatalf("%d cores in use after the cancelled run, want the foreign 4", n)
	}
}
