package engine

import (
	"context"
	"testing"

	"legato/internal/power"
	"legato/internal/taskrt"
)

// TestPowerLedgerWiredToFleet checks the core-ledger/watt-ledger coupling:
// a Fleet.Fail mid-session must release the lost device's draw from the
// power ledger (idle and granted dynamic watts), and late releases from
// jobs crossing the crash on private clocks must not double-release.
func TestPowerLedgerWiredToFleet(t *testing.T) {
	e, err := New(Config{Workers: 1, Policy: taskrt.MinTime, Fleet: testFleet(),
		PowerCapW: 100, Governor: power.PackAndThrottle})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Shutdown(context.Background()) }()

	pw := e.Power()
	// testFleet idles at 10 + 5 = 15 W.
	if got := pw.Draw(); got != 15 {
		t.Fatalf("initial draw = %v, want 15 W idle floor", got)
	}
	if !pw.TryDraw("dev/cpu", 30) {
		t.Fatal("draw refused")
	}
	e.Fleet().Fail("dev/cpu")
	if !pw.Lost("dev/cpu") {
		t.Fatal("fleet failure not forwarded to the power ledger")
	}
	// cpu idle (10) and its granted 30 W both gone: only fpga idle remains.
	if got := pw.Draw(); got != 5 {
		t.Fatalf("draw after Fail = %v, want 5", got)
	}
	pw.ReleaseDraw("dev/cpu", 30) // late revocation: must be a no-op
	if got := pw.Draw(); got != 5 {
		t.Fatalf("draw after late release = %v, want 5 (double release)", got)
	}
}

// TestCapEnforcedUnderDeviceLoss runs a capped multi-job session that
// loses a device mid-traffic and asserts the peak-draw witness across the
// whole session: the modelled fleet draw never exceeded the cap, before or
// after the loss, and every job still completed.
func TestCapEnforcedUnderDeviceLoss(t *testing.T) {
	// testFleet peak: cpu 60 + fpga 25 = 85 W. A 60 W cap forces the
	// watt ledger to arbitrate: cpu full-width draw is 50 W dynamic + 15 W
	// idle = 65 W > cap, so wide cpu placements must wait for headroom.
	const capW = 60
	e, err := New(Config{Workers: 4, Policy: taskrt.MinTime, Fleet: testFleet(),
		PowerCapW: capW, Governor: power.PackAndThrottle})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Shutdown(context.Background()) }()

	ctx := context.Background()
	var jobs []*Job
	failed := false
	for n := 0; n < 6; n++ {
		fn := func() {}
		if n == 0 {
			// Fail the fpga from inside the first job's mid-chain task: the
			// loss lands mid-session while siblings hold draw.
			fn = func() {
				if !failed {
					failed = true
					e.Fleet().Fail("dev/fpga")
				}
			}
		}
		j := chainJob(t, e, "job"+string(rune('a'+n)), 4, 6, fn)
		jobs = append(jobs, j)
		if err := e.Submit(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v", j.Name, err)
		}
	}
	st := e.Stats()
	if st.JobsCompleted != 6 {
		t.Fatalf("jobs completed = %d, want 6", st.JobsCompleted)
	}
	if st.PeakDrawW > capW {
		t.Fatalf("peak draw %v W exceeded the %v W cap", st.PeakDrawW, capW)
	}
	if !e.Power().Lost("dev/fpga") {
		t.Fatal("mid-session loss never reached the power ledger")
	}
	// After the loss the fpga contributes nothing to the draw.
	if got := e.Power().DrawOf("dev/fpga"); got != 0 {
		t.Fatalf("lost device draw = %v, want 0", got)
	}
	if st.PowerCapW != capW {
		t.Fatalf("stats cap = %v, want %v", st.PowerCapW, capW)
	}
}

// TestInfeasibleCapRejected pins the construction-time guard: a cap the
// idle floor alone exhausts would park every placement forever, so the
// engine must refuse to start instead.
func TestInfeasibleCapRejected(t *testing.T) {
	// testFleet idles at 15 W.
	for _, capW := range []float64{1, 15} {
		_, err := New(Config{Workers: 1, Policy: taskrt.MinTime, Fleet: testFleet(),
			PowerCapW: capW})
		if err == nil {
			t.Fatalf("cap %v W at or below the idle floor was accepted", capW)
		}
	}
	e, err := New(Config{Workers: 1, Policy: taskrt.MinTime, Fleet: testFleet(),
		PowerCapW: 16})
	if err != nil {
		t.Fatalf("barely-feasible cap rejected: %v", err)
	}
	_ = e.Shutdown(context.Background())
}

// TestUncappedSessionChargesIdle checks the session energy split: the
// platform energy includes the idle floor over the makespan, on top of the
// dynamic task energy.
func TestUncappedSessionChargesIdle(t *testing.T) {
	e := newTestEngine(t, 2)
	ctx := context.Background()
	j := chainJob(t, e, "idlecheck", 3, 2, nil)
	if err := e.Submit(ctx, j); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.PowerCapW != 0 {
		t.Fatalf("uncapped session reports cap %v", st.PowerCapW)
	}
	if st.PlatformEnergyJ <= st.EnergyJ {
		t.Fatalf("platform energy %v must exceed dynamic task energy %v (idle floor)",
			st.PlatformEnergyJ, st.EnergyJ)
	}
	if st.AvgPowerW <= 0 {
		t.Fatalf("avg power = %v, want > 0", st.AvgPowerW)
	}
}
