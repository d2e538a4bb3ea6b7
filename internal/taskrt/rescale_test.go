package taskrt_test

import (
	"testing"

	"legato/internal/energy"
	"legato/internal/engine"
	"legato/internal/power"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// pollingPower forwards the four PowerAdmission methods to a ledger and no
// more: it hides the ledger's Rescales, so a runtime must poll it on every
// sync.
type pollingPower struct {
	l     *power.Ledger
	polls int // OperatingPoint calls
}

func (p *pollingPower) TryDraw(id string, w energy.Watts) bool { return p.l.TryDraw(id, w) }
func (p *pollingPower) ReleaseDraw(id string, w energy.Watts)  { p.l.ReleaseDraw(id, w) }
func (p *pollingPower) Changed() <-chan struct{}               { return p.l.Changed() }
func (p *pollingPower) OperatingPoint(id string) int {
	p.polls++
	return p.l.OperatingPoint(id)
}

// countingPower exposes the ledger's Rescales too, and records the rescale
// count at every OperatingPoint call.
type countingPower struct {
	pollingPower
	seen []uint64 // Rescales() at each OperatingPoint call
}

func (p *countingPower) OperatingPoint(id string) int {
	p.seen = append(p.seen, p.l.Rescales())
	return p.pollingPower.OperatingPoint(id)
}

func (p *countingPower) Rescales() uint64 { return p.l.Rescales() }

// rescaleRun runs the E13 job under a 60% cap with PackAndThrottle, the
// power admission built by wrap around the run's ledger, and returns the
// records digest, the Rescaled hook calls and the ledger.
func rescaleRun(t *testing.T, wrap func(*power.Ledger) taskrt.PowerAdmission) (string, int, *power.Ledger) {
	t.Helper()
	ref := cloudDevices(t, sim.NewEngine())
	fleet := engine.NewFleet(ref)
	ledger := power.NewLedger(0.6*power.FleetPeakWatts(ref), ref, power.PackAndThrottle)
	fleet.AttachPower(ledger)
	eng := sim.NewEngine()
	rt := taskrt.New(eng, cloudDevices(t, eng), taskrt.MinTime)
	rt.SetAdmission(fleet)
	rt.SetPowerAdmission(wrap(ledger))
	rescaled := 0
	rt.AddHooks(taskrt.Hooks{Rescaled: func(string, int, int, sim.Time) { rescaled++ }})
	e13Graph(t, rt)
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ledger.Rescales() == 0 {
		t.Fatal("the cap never made the governor rescale")
	}
	return recordsDigest(res.Records), rescaled, ledger
}

// A power admission that counts its rescales is polled on the first sync
// and then only after the count moved: every poll of the run sees a
// different count. One without the count is polled on every sync and
// still throttles its mirror, and both runs place, time and charge every
// task exactly as the bare ledger does.
func TestOperatingPointsPolledOnlyAfterMove(t *testing.T) {
	devs := len(cloudDevices(t, sim.NewEngine()))
	bare, bareRescaled, _ := rescaleRun(t, func(l *power.Ledger) taskrt.PowerAdmission { return l })

	counting := &countingPower{}
	got, rescaled, ledger := rescaleRun(t, func(l *power.Ledger) taskrt.PowerAdmission {
		counting.l = l
		return counting
	})
	if got != bare || rescaled != bareRescaled {
		t.Fatalf("counting admission: digest %s, %d rescaled hooks; bare ledger %s, %d", got, rescaled, bare, bareRescaled)
	}
	if counting.polls%devs != 0 {
		t.Fatalf("%d OperatingPoint calls is no whole number of %d-device polls", counting.polls, devs)
	}
	polls := counting.polls / devs
	for i := 0; i < polls; i++ {
		at := counting.seen[i*devs]
		if i > 0 && at == counting.seen[(i-1)*devs] {
			t.Fatalf("poll %d of %d at rescale count %d, as the poll before it", i+1, polls, at)
		}
	}
	if polls < 2 || uint64(polls) > 1+ledger.Rescales() {
		t.Fatalf("%d polls for %d rescales, want 2..%d", polls, ledger.Rescales(), 1+ledger.Rescales())
	}

	polling := &pollingPower{}
	got, rescaled, _ = rescaleRun(t, func(l *power.Ledger) taskrt.PowerAdmission {
		polling.l = l
		return polling
	})
	if got != bare || rescaled != bareRescaled || rescaled == 0 {
		t.Fatalf("polling admission: digest %s, %d rescaled hooks; bare ledger %s, %d", got, rescaled, bare, bareRescaled)
	}
	if polling.polls <= counting.polls {
		t.Fatalf("polling admission polled %d times, counting one %d", polling.polls, counting.polls)
	}
	t.Logf("%d rescales: %d polls with the count, %d without", ledger.Rescales(), polls, polling.polls/devs)
}
