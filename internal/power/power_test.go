package power

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"legato/internal/energy"
	"legato/internal/hw"
	"legato/internal/sim"
)

func testDevices(t *testing.T) []*hw.Device {
	t.Helper()
	se := sim.NewEngine()
	specA := hw.Spec{
		Name: "cpu", Class: hw.CPUx86, Cores: 8, GOPS: 100,
		IdleWatts: 10, PeakWatts: 50,
		States: []hw.DVFSState{
			{Name: "nominal", FreqGHz: 2.0, Voltage: 1.0},
			{Name: "eco", FreqGHz: 1.0, Voltage: 0.8},
		},
	}
	specB := hw.Spec{
		Name: "fpga", Class: hw.FPGA, Cores: 4, GOPS: 200,
		IdleWatts: 5, PeakWatts: 25,
	}
	return []*hw.Device{
		hw.NewDevice(se, "cpu0", specA),
		hw.NewDevice(se, "fpga0", specB),
	}
}

func TestLadderFor(t *testing.T) {
	devs := testDevices(t)
	l := LadderFor("cpu0", devs[0].Spec)
	if len(l.Points) != 2 {
		t.Fatalf("ladder has %d points, want 2", len(l.Points))
	}
	nom := l.Points[0]
	if nom.SpeedScale != 1 || nom.PowerScale != 1 {
		t.Fatalf("nominal point scales = (%v, %v), want (1, 1)", nom.SpeedScale, nom.PowerScale)
	}
	eco := l.Points[1]
	if eco.SpeedScale != 0.5 {
		t.Fatalf("eco speed scale = %v, want 0.5 (1.0/2.0 GHz)", eco.SpeedScale)
	}
	// f·V² scaling: 0.5 × 0.8².
	if math.Abs(eco.PowerScale-0.5*0.64) > 1e-12 {
		t.Fatalf("eco power scale = %v, want 0.32", eco.PowerScale)
	}
	// A spec without explicit states resolves to a single nominal point.
	fl := LadderFor("fpga0", devs[1].Spec)
	if len(fl.Points) != 1 || fl.Points[0].SpeedScale != 1 {
		t.Fatalf("stateless spec ladder = %+v, want one nominal point", fl.Points)
	}
}

func TestUndervoltModel(t *testing.T) {
	if UndervoltVoltageScale(0) != 1 || UndervoltPowerScale(0) != 1 || SDCProbability(0) != 0 {
		t.Fatal("guardband level must be free of both savings and risk")
	}
	for lvl := 1; lvl <= MaxUndervolt; lvl++ {
		v := UndervoltVoltageScale(lvl)
		if v >= UndervoltVoltageScale(lvl-1) {
			t.Fatalf("voltage scale not decreasing at level %d", lvl)
		}
		if got, want := UndervoltPowerScale(lvl), v*v; math.Abs(got-want) > 1e-12 {
			t.Fatalf("power scale at level %d = %v, want v² = %v", lvl, got, want)
		}
		if SDCProbability(lvl) <= SDCProbability(lvl-1) {
			t.Fatalf("SDC probability not increasing at level %d", lvl)
		}
	}
	// Levels beyond the maximum clamp rather than extrapolate.
	if SDCProbability(MaxUndervolt+5) != SDCProbability(MaxUndervolt) {
		t.Fatal("SDC probability not clamped above MaxUndervolt")
	}
	if UndervoltPowerScale(MaxUndervolt+5) != UndervoltPowerScale(MaxUndervolt) {
		t.Fatal("power scale not clamped above MaxUndervolt")
	}
}

func TestLedgerCapWitness(t *testing.T) {
	devs := testDevices(t) // idle 10 + 5 = 15 W
	l := NewLedger(40, devs, RaceToIdle)
	if got := l.Draw(); got != 15 {
		t.Fatalf("initial draw = %v, want the 15 W idle floor", got)
	}
	if !l.TryDraw("cpu0", 20) {
		t.Fatal("draw within cap refused")
	}
	// 15 + 20 + 10 > 40: must refuse and count a stall.
	if l.TryDraw("fpga0", 10) {
		t.Fatal("draw over cap granted")
	}
	if l.Stalls() != 1 {
		t.Fatalf("stalls = %d, want 1", l.Stalls())
	}
	if l.TryDraw("fpga0", 5) != true {
		t.Fatal("draw exactly at cap refused")
	}
	if got := l.PeakDraw(); got != 40 {
		t.Fatalf("peak draw = %v, want 40", got)
	}
	if l.PeakDraw() > l.Cap() {
		t.Fatal("peak-draw witness violated")
	}
	l.ReleaseDraw("cpu0", 20)
	l.ReleaseDraw("fpga0", 5)
	if got := l.Draw(); got != 15 {
		t.Fatalf("draw after release = %v, want 15", got)
	}
	// RaceToIdle never reshapes operating points.
	if l.Rescales() != 0 || l.OperatingPoint("cpu0") != 0 {
		t.Fatal("race-to-idle governor rescaled a device")
	}
}

func TestLedgerUncapped(t *testing.T) {
	devs := testDevices(t)
	l := NewLedger(0, devs, RaceToIdle)
	if l.Capped() {
		t.Fatal("zero cap must mean uncapped")
	}
	if !l.TryDraw("cpu0", 1e9) {
		t.Fatal("uncapped ledger refused a draw")
	}
}

func TestLedgerWakeOnRelease(t *testing.T) {
	devs := testDevices(t)
	l := NewLedger(40, devs, RaceToIdle)
	if !l.TryDraw("cpu0", 25) {
		t.Fatal("draw refused")
	}
	ch := l.Changed()
	select {
	case <-ch:
		t.Fatal("generation channel closed early")
	default:
	}
	l.ReleaseDraw("cpu0", 25)
	select {
	case <-ch:
	default:
		t.Fatal("release did not wake the generation channel")
	}
}

func TestLedgerDeviceLost(t *testing.T) {
	devs := testDevices(t)
	l := NewLedger(40, devs, RaceToIdle)
	if !l.TryDraw("cpu0", 20) {
		t.Fatal("draw refused")
	}
	ch := l.Changed()
	l.DeviceLost("cpu0")
	select {
	case <-ch:
	default:
		t.Fatal("device loss did not wake parked jobs")
	}
	// Idle (10) and granted dynamic (20) both released: only fpga idle left.
	if got := l.Draw(); got != 5 {
		t.Fatalf("draw after loss = %v, want 5", got)
	}
	if !l.Lost("cpu0") || l.DrawOf("cpu0") != 0 {
		t.Fatal("lost device still charged")
	}
	// Late revocations (jobs crossing the crash on private clocks) must not
	// double-release.
	l.ReleaseDraw("cpu0", 20)
	if got := l.Draw(); got != 5 {
		t.Fatalf("draw after late release = %v, want 5 (no double release)", got)
	}
	if l.TryDraw("cpu0", 1) {
		t.Fatal("draw granted on a lost device")
	}
	// A second loss of the same device is a no-op.
	l.DeviceLost("cpu0")
	if got := l.Draw(); got != 5 {
		t.Fatalf("draw after repeated loss = %v, want 5", got)
	}
}

func TestPackAndThrottleGovernor(t *testing.T) {
	devs := testDevices(t)
	l := NewLedger(40, devs, PackAndThrottle)
	if !l.TryDraw("cpu0", 24) {
		t.Fatal("draw refused")
	}
	// Refusal steps the target device down its ladder.
	if l.TryDraw("cpu0", 10) {
		t.Fatal("draw over cap granted")
	}
	if l.OperatingPoint("cpu0") != 1 {
		t.Fatalf("cpu0 operating point = %d after refusal, want 1 (eco)", l.OperatingPoint("cpu0"))
	}
	if l.Rescales() != 1 {
		t.Fatalf("rescales = %d, want 1", l.Rescales())
	}
	// The fpga has no lower rung, so a refusal on it throttles the
	// hungriest throttleable sibling — but cpu0 is already at its floor,
	// so the ladder stays put.
	if l.TryDraw("fpga0", 10) {
		t.Fatal("draw over cap granted")
	}
	if l.OperatingPoint("fpga0") != 0 {
		t.Fatal("stateless device was stepped below its only point")
	}
	// Releasing far below the 70% hysteresis threshold steps cpu0 back up.
	l.ReleaseDraw("cpu0", 24)
	if l.OperatingPoint("cpu0") != 0 {
		t.Fatalf("cpu0 operating point = %d after relaxation, want 0 (nominal)", l.OperatingPoint("cpu0"))
	}
}

func TestFleetPeakWatts(t *testing.T) {
	devs := testDevices(t)
	if got := FleetPeakWatts(devs); got != energy.Watts(75) {
		t.Fatalf("fleet peak = %v, want 75 (50 + 25)", got)
	}
}

// TestGovernorTieBreakConstructionOrder checks that throttling and
// unthrottling choose among equally-drawn (or equally-throttled) devices
// by construction order, never by map iteration order.
func TestGovernorTieBreakConstructionOrder(t *testing.T) {
	base := testDevices(t)
	se := sim.NewEngine()
	var devs []*hw.Device
	for _, id := range []string{"cpu3", "cpu1", "cpu2"} {
		devs = append(devs, hw.NewDevice(se, id, base[0].Spec))
	}
	devs = append(devs, base[1]) // fpga0: a single point, never throttled
	for trial := 0; trial < 50; trial++ {
		l := NewLedger(80, devs, PackAndThrottle)
		for _, id := range []string{"cpu1", "cpu2", "cpu3"} {
			if !l.TryDraw(id, 10) {
				t.Fatal("draw refused under the cap")
			}
		}
		// fpga0 has no lower rung: the refusal steps a sibling down, and the
		// three equal draws tie.
		if l.TryDraw("fpga0", 20) {
			t.Fatal("draw over cap granted")
		}
		if got := []int{l.OperatingPoint("cpu3"), l.OperatingPoint("cpu1"), l.OperatingPoint("cpu2")}; got[0] != 1 || got[1] != 0 || got[2] != 0 {
			t.Fatalf("trial %d: operating points %v, want the first-built cpu3 throttled", trial, got)
		}
		if l.TryDraw("fpga0", 20) {
			t.Fatal("draw over cap granted")
		}
		if l.OperatingPoint("cpu1") != 1 || l.OperatingPoint("cpu2") != 0 {
			t.Fatalf("trial %d: second throttle did not take cpu1", trial)
		}
		// Relaxing the draw below 70% of the cap restores the first-built of
		// the two throttled devices first.
		l.ReleaseDraw("cpu2", 10)
		if l.OperatingPoint("cpu3") != 0 || l.OperatingPoint("cpu1") != 1 {
			t.Fatalf("trial %d: unthrottle did not restore cpu3 first", trial)
		}
	}
}

// TestOperatingPointConcurrentWithGovernor reads operating points without
// the ledger mutex while other goroutines drive the governor through
// refusals and releases. Run under -race.
func TestOperatingPointConcurrentWithGovernor(t *testing.T) {
	devs := testDevices(t)
	l := NewLedger(40, devs, PackAndThrottle)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if g%2 == 0 {
					if l.TryDraw("cpu0", 20) {
						l.ReleaseDraw("cpu0", 20)
					}
					continue
				}
				if p := l.OperatingPoint("cpu0"); p < 0 || p > 1 {
					t.Errorf("operating point %d outside the two-point ladder", p)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// A device the ledger was never built with draws nothing: the grant is
// refused and counted as a stall, no sibling is throttled for it, and a
// release on it is a no-op.
func TestLedgerUnknownDevice(t *testing.T) {
	devs := testDevices(t)
	l := NewLedger(40, devs, PackAndThrottle)
	if !l.TryDraw("cpu0", 20) {
		t.Fatal("draw refused")
	}
	if l.TryDraw("ghost", 1) {
		t.Fatal("draw on an unknown device granted")
	}
	// Over the cap: a refusal for a known device would throttle cpu0.
	if l.TryDraw("ghost", 10) {
		t.Fatal("over-cap draw on an unknown device granted")
	}
	if got := l.Stalls(); got != 2 {
		t.Fatalf("stalls = %d, want 2", got)
	}
	if got := l.OperatingPoint("cpu0"); got != 0 || l.Rescales() != 0 {
		t.Fatalf("cpu0 throttled to %d (%d rescales) for an unknown device", got, l.Rescales())
	}
	ch := l.Changed()
	l.ReleaseDraw("ghost", 20)
	select {
	case <-ch:
		t.Fatal("release on an unknown device signalled Changed")
	default:
	}
	if got, peak := l.Draw(), l.PeakDraw(); got != 35 || peak != 35 {
		t.Fatalf("draw %v peak %v, want 35 both", got, peak)
	}
	if got := l.DrawOf("ghost"); got != 0 {
		t.Fatalf("unknown device draws %v", got)
	}
	if got := l.DrawOf("cpu0"); got != 30 {
		t.Fatalf("cpu0 draws %v, want 30", got)
	}
}

// A release that nobody parks on allocates nothing, and a channel taken
// from Changed after many such releases is still closed by the next one.
func TestLedgerChangedAllocatesOnlyForWaiters(t *testing.T) {
	devs := testDevices(t)
	for _, gov := range []Kind{RaceToIdle, PackAndThrottle} {
		l := NewLedger(40, devs, gov)
		if n := testing.AllocsPerRun(200, func() {
			if !l.TryDraw("cpu0", 5) {
				t.Fatal("draw refused")
			}
			l.ReleaseDraw("cpu0", 5)
		}); n != 0 {
			t.Fatalf("%v: TryDraw+ReleaseDraw allocated %v times per run", gov, n)
		}
		ch := l.Changed()
		select {
		case <-ch:
			t.Fatalf("%v: Changed closed before any release", gov)
		default:
		}
		l.TryDraw("cpu0", 5)
		l.ReleaseDraw("cpu0", 5)
		select {
		case <-ch:
		default:
			t.Fatalf("%v: release did not close the taken channel", gov)
		}
		if next := l.Changed(); next == ch {
			t.Fatalf("%v: Changed handed out the closed channel again", gov)
		}
	}
}

// Draw reads the published fleet draw without the lock; it must track every
// grant, release and loss exactly.
func TestLedgerDrawTracksChanges(t *testing.T) {
	devs := testDevices(t)
	l := NewLedger(0, devs, RaceToIdle)
	steps := []struct {
		do   func()
		want energy.Watts
	}{
		{func() {}, 15},
		{func() { l.TryDraw("cpu0", 12.5) }, 27.5},
		{func() { l.TryDraw("fpga0", 4) }, 31.5},
		{func() { l.ReleaseDraw("cpu0", 2.5) }, 29},
		{func() { l.DeviceLost("fpga0") }, 20},
		{func() { l.ReleaseDraw("cpu0", 100) }, 10},
	}
	for i, s := range steps {
		s.do()
		if got := l.Draw(); got != s.want {
			t.Fatalf("step %d: draw %v, want %v", i, got, s.want)
		}
	}
}

// TestLedgerRescalesCountsEveryMove checks that Rescales equals the number
// of operating-point changes, step by step over a seeded run of grants,
// refusals and releases, and that it can be read without the ledger mutex
// while other goroutines drive the governor. Run under -race.
func TestLedgerRescalesCountsEveryMove(t *testing.T) {
	devs := testDevices(t)
	ids := []string{"cpu0", "fpga0"}
	l := NewLedger(40, devs, PackAndThrottle)
	r := rand.New(rand.NewSource(17))
	points := func() []int {
		ps := make([]int, len(ids))
		for i, id := range ids {
			ps[i] = l.OperatingPoint(id)
		}
		return ps
	}
	held := map[string]energy.Watts{}
	moves := uint64(0)
	before := points()
	for step := 0; step < 400; step++ {
		id := ids[r.Intn(len(ids))]
		if w := energy.Watts(1 + r.Intn(20)); r.Intn(2) == 0 {
			if l.TryDraw(id, w) {
				held[id] += w
			}
		} else {
			w = min(w, held[id])
			held[id] -= w
			l.ReleaseDraw(id, w)
		}
		after := points()
		for i := range after {
			if d := after[i] - before[i]; d != 0 {
				moves += uint64(max(d, -d))
			}
		}
		before = after
		if got := l.Rescales(); got != moves {
			t.Fatalf("step %d: Rescales %d, %d operating-point changes", step, got, moves)
		}
	}
	if moves < 10 {
		t.Fatalf("only %d operating-point changes: the run does not exercise the governor", moves)
	}

	l = NewLedger(40, devs, PackAndThrottle)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if l.TryDraw("cpu0", 20) {
					l.ReleaseDraw("cpu0", 20)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := uint64(0)
		for i := 0; i < 2000; i++ {
			n := l.Rescales()
			if n < last {
				t.Errorf("Rescales went back from %d to %d", last, n)
				return
			}
			last = n
		}
	}()
	wg.Wait()
	// Every change moves the one two-point ladder by one rung, so the count
	// has the parity of the final point and is at least as large.
	if n, p := l.Rescales(), uint64(l.OperatingPoint("cpu0")); n < p || n%2 != p%2 {
		t.Fatalf("Rescales %d cannot end at operating point %d", n, p)
	}
}
