package taskrt

import (
	"errors"
	"testing"
	"time"

	"legato/internal/hw"
	"legato/internal/sim"
)

// twoCPUs returns two x86 devices: cpu0 is the MinTime favourite (full
// Xeon), cpu1 a slower fallback of the same class.
func twoCPUs(eng *sim.Engine) []*hw.Device {
	fast := hw.XeonD()
	slow := hw.XeonD()
	slow.GOPS = fast.GOPS / 2
	return []*hw.Device{
		hw.NewDevice(eng, "cpu0", fast),
		hw.NewDevice(eng, "cpu1", slow),
	}
}

func chain(rt *Runtime, n int, gops float64) error {
	prev := rt.Data("d0", 1<<10)
	for i := 0; i < n; i++ {
		next := rt.Data("d"+string(rune('1'+i)), 1<<10)
		if err := rt.Submit(Task{Name: "t" + string(rune('0'+i)), Gops: gops,
			In: []*Data{prev}, Out: []*Data{next}}); err != nil {
			return err
		}
		prev = next
	}
	return nil
}

// A crash mid-task revokes the execution and re-places it on the surviving
// device; the run completes with the retry counted and the final record on
// the survivor.
func TestCrashRevokesAndRetries(t *testing.T) {
	eng := sim.NewEngine()
	devs := twoCPUs(eng)
	rt := New(eng, devs, MinTime)
	rt.SetRetryPolicy(3, time.Millisecond)
	if err := rt.Submit(Task{Name: "work", Gops: 100}); err != nil {
		t.Fatal(err)
	}
	// The task runs on cpu0 (fastest); kill cpu0 mid-execution.
	rt.ScheduleFault(time.Millisecond, func() {
		revoked, _ := rt.FailDevice("cpu0")
		if revoked != 1 {
			t.Errorf("revoked = %d, want 1", revoked)
		}
	})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 1 {
		t.Fatalf("retries = %d, want 1", res.Retries)
	}
	rec := res.Records[0]
	if rec.Device != "cpu1" {
		t.Fatalf("final execution on %s, want the survivor cpu1", rec.Device)
	}
	if rec.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", rec.Attempts)
	}
}

// Losing every compatible device mid-run aborts with ErrDeviceLost.
func TestDeviceLostAborts(t *testing.T) {
	eng := sim.NewEngine()
	devs := twoCPUs(eng)
	rt := New(eng, devs, MinTime)
	rt.SetRetryPolicy(5, time.Millisecond)
	if err := rt.Submit(Task{Name: "work", Gops: 100}); err != nil {
		t.Fatal(err)
	}
	rt.ScheduleFault(time.Millisecond, func() { rt.FailDevice("cpu0") })
	rt.ScheduleFault(2*time.Millisecond, func() { rt.FailDevice("cpu1") })
	_, err := rt.Run()
	if !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("err = %v, want ErrDeviceLost", err)
	}
}

// A critical task whose every execution is corrupted exhausts its attempt
// budget and aborts with ErrRetriesExhausted.
func TestRetriesExhausted(t *testing.T) {
	eng := sim.NewEngine()
	devs := twoCPUs(eng)
	rt := New(eng, devs, MinTime)
	rt.SetRetryPolicy(2, time.Millisecond)
	rt.SetCorruptor(func(Record) bool { return true })
	if err := rt.Submit(Task{Name: "doomed", Gops: 10, Critical: true}); err != nil {
		t.Fatal(err)
	}
	_, err := rt.Run()
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
}

// A detected corruption (critical task) re-executes; a silent one
// (non-critical) is carried in the record.
func TestSDCDetectionSemantics(t *testing.T) {
	eng := sim.NewEngine()
	devs := twoCPUs(eng)
	rt := New(eng, devs, MinTime)
	rt.SetRetryPolicy(3, time.Millisecond)
	first := true
	rt.SetCorruptor(func(Record) bool {
		hit := first
		first = false
		return hit
	})
	if err := rt.Submit(Task{Name: "crit", Gops: 10, Critical: true}); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SDCDetected != 1 || res.Retries != 1 {
		t.Fatalf("detected=%d retries=%d, want 1/1", res.SDCDetected, res.Retries)
	}
	if res.Records[0].Corrupted {
		t.Fatal("re-executed critical task still marked corrupted")
	}

	eng2 := sim.NewEngine()
	rt2 := New(eng2, twoCPUs(eng2), MinTime)
	first2 := true
	rt2.SetCorruptor(func(Record) bool {
		hit := first2
		first2 = false
		return hit
	})
	if err := rt2.Submit(Task{Name: "plain", Gops: 10}); err != nil {
		t.Fatal(err)
	}
	res2, err := rt2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.SDCSilent != 1 || res2.Retries != 0 {
		t.Fatalf("silent=%d retries=%d, want 1/0", res2.SDCSilent, res2.Retries)
	}
	if !res2.Records[0].Corrupted {
		t.Fatal("silently corrupted record not marked")
	}
}

// Without checkpoints, a late crash invalidates every completed task whose
// output lived on the lost device and is still needed; with checkpoints,
// only the un-persisted tail re-executes.
func TestCheckpointLimitsRestores(t *testing.T) {
	run := func(ckptEvery int) (*Result, error) {
		eng := sim.NewEngine()
		devs := twoCPUs(eng)
		rt := New(eng, devs, MinTime)
		rt.SetRetryPolicy(3, time.Millisecond)
		if ckptEvery > 0 {
			rt.SetCheckpoint(ckptEvery,
				func(int64) sim.Time { return 0 }, // commits instantly
				func(int64) sim.Time { return time.Millisecond })
		}
		if err := chain(rt, 5, 50); err != nil {
			return nil, err
		}
		// cpu0 runs the whole chain at 2s/task (Gops 50 over a 25 GOPS/core
		// Xeon lane): completions land at 2s, 4s, ... Crash at 4.5s — t0 and
		// t1 are done-but-unpersisted, t2 is in flight. Without checkpoints
		// the transitive invalidation drags t0 and t1 back in (their outputs
		// died with cpu0); with an instant per-task checkpoint both are
		// persisted and only the revoked t2 re-executes.
		rt.ScheduleFault(4500*time.Millisecond, func() { rt.FailDevice("cpu0") })
		return rt.Run()
	}

	bare, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Restores == 0 {
		t.Fatalf("uncheckpointed run restored nothing: %+v", bare)
	}
	if ckpt.Checkpoints == 0 {
		t.Fatalf("checkpointed run committed nothing: %+v", ckpt)
	}
	if ckpt.Restores >= bare.Restores {
		t.Fatalf("checkpoints did not reduce restores: %d (ckpt) vs %d (bare)",
			ckpt.Restores, bare.Restores)
	}
	if ckpt.Makespan >= bare.Makespan {
		t.Fatalf("checkpointed recovery not faster: %v vs %v", ckpt.Makespan, bare.Makespan)
	}
}

// A fault scheduled beyond the graph's lifetime is cancelled when the last
// task completes: the run ends at its natural makespan and the device
// stays healthy.
func TestFaultAfterCompletionCancelled(t *testing.T) {
	eng := sim.NewEngine()
	devs := twoCPUs(eng)
	rt := New(eng, devs, MinTime)
	if err := chain(rt, 3, 10); err != nil {
		t.Fatal(err)
	}
	rt.ScheduleFault(time.Hour, func() { rt.FailDevice("cpu0") })
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan >= time.Hour {
		t.Fatalf("pending fault stretched the run to %v", res.Makespan)
	}
	if !devs[0].Healthy() {
		t.Fatal("device failed after the graph completed")
	}
	if res.Restores != 0 || res.Retries != 0 {
		t.Fatalf("phantom recovery work: %+v", res)
	}
}

// Retried hook fires with the reason, DeviceLost with the counts, and
// Checkpointed when a snapshot commits.
func TestResilienceHooks(t *testing.T) {
	eng := sim.NewEngine()
	devs := twoCPUs(eng)
	rt := New(eng, devs, MinTime)
	rt.SetRetryPolicy(3, time.Millisecond)
	rt.SetCheckpoint(1, func(int64) sim.Time { return 0 }, nil)
	var retried, lost, ckpts int
	var reason string
	rt.AddHooks(Hooks{
		Retried:      func(_ string, _ int, r string, _ sim.Time) { retried++; reason = r },
		DeviceLost:   func(id string, _, _ int, _ sim.Time) { lost++ },
		Checkpointed: func(int, int64, sim.Time, sim.Time) { ckpts++ },
	})
	if err := chain(rt, 3, 50); err != nil {
		t.Fatal(err)
	}
	rt.ScheduleFault(time.Millisecond, func() { rt.FailDevice("cpu0") })
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if retried == 0 || reason != "crash" {
		t.Fatalf("retried hook: count=%d reason=%q", retried, reason)
	}
	if lost != 1 {
		t.Fatalf("device-lost hook fired %d times", lost)
	}
	if ckpts == 0 {
		t.Fatal("checkpoint hook never fired")
	}
}

// TestRetryBackoffCeiling: a Critical task whose vote keeps failing under
// a 64-attempt budget retries with a backoff that doubles per failure up
// to base << maxBackoffDoublings and stays there, so the run ends in
// ErrRetriesExhausted instead of overflowing virtual time. The first
// eight backoffs are the unclamped base << (attempt-1).
func TestRetryBackoffCeiling(t *testing.T) {
	eng := sim.NewEngine()
	rt := New(eng, twoCPUs(eng)[:1], MinTime)
	rt.SetCorruptor(func(Record) bool { return true })
	var retried, placed []sim.Time
	rt.AddHooks(Hooks{
		Retried: func(_ string, _ int, _ string, at sim.Time) { retried = append(retried, at) },
		Placed:  func(_, _ string, _ int, at sim.Time) { placed = append(placed, at) },
	})
	if err := rt.Submit(Task{Name: "vote", Gops: 1, Critical: true, Retry: 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if len(retried) != 64 || len(placed) != 65 {
		t.Fatalf("%d retries and %d placements, want 64 and 65", len(retried), len(placed))
	}
	for k, at := range retried {
		want := time.Millisecond << min(k, maxBackoffDoublings)
		if got := placed[k+1] - at; got != want {
			t.Fatalf("backoff before attempt %d = %v, want %v", k+2, got, want)
		}
	}
}
