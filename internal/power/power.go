// Package power implements the fleet-wide power-management subsystem of
// the LEGaTO reproduction — the third pillar (low-*energy*) next to the
// resilience layer (internal/faults) and the concurrent engine
// (internal/engine). Three pieces:
//
//   - DVFS ladders (LadderFor): every device's supported operating points
//     (frequency/voltage → speed factor, dynamic-power factor), plus
//     task-level undervolt points below the vendor guardband whose silent-
//     data-corruption probability feeds the internal/faults SDC model —
//     the Sec. III trade the paper builds FPGA undervolting on.
//   - a power-cap Ledger: the watt sibling of the engine's core-admission
//     ledger. The fleet has one watt budget; a placement is feasible only
//     if its dynamic draw fits under the cap on top of the static (idle)
//     draw of every healthy device. A TryDraw that would breach the cap
//     fails, and the job parks on a generation channel exactly like a
//     core-admission stall. PeakDraw ≤ Cap is the peak-draw witness, the
//     analogue of the core ledger's Peak(id) ≤ Capacity(id).
//   - a Governor policy: RaceToIdle keeps every device at nominal
//     frequency and lets jobs park under cap pressure (finish fast, idle
//     long); PackAndThrottle steps devices down their DVFS ladders when
//     draws are refused, packing more concurrent work under the cap at
//     lower per-task power, and steps them back toward nominal when the
//     draw relaxes or a device loss frees headroom.
//
// Layering: power knows the hardware catalogue (hw) and the energy units
// but not the engine or the task runtime; the engine owns one Ledger per
// session, taskrt consults it through the taskrt.PowerAdmission interface,
// and engine.Fleet forwards Fail/SetCapacity events so the watt ledger
// releases a lost device's draw the moment the core ledger zeroes its
// capacity.
package power

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"legato/internal/energy"
	"legato/internal/hw"
)

// Kind selects the governor policy reshaping device frequencies under cap
// pressure.
type Kind int

const (
	// RaceToIdle keeps devices at nominal frequency; under cap pressure
	// jobs park until siblings release draw (run fast, idle long).
	RaceToIdle Kind = iota
	// PackAndThrottle steps devices down their DVFS ladder when a draw is
	// refused, fitting more concurrent tasks under the cap at lower
	// per-task power, and steps back up when the draw relaxes.
	PackAndThrottle
)

// String names the governor kind.
func (k Kind) String() string {
	switch k {
	case RaceToIdle:
		return "race-to-idle"
	case PackAndThrottle:
		return "pack-and-throttle"
	default:
		return fmt.Sprintf("governor(%d)", int(k))
	}
}

// Point is one operating point of a device's DVFS ladder, pre-resolved to
// scaling factors relative to the nominal state.
type Point struct {
	// State is the index into the device Spec.States this point selects.
	State int
	Name  string
	// FreqGHz and Voltage echo the underlying DVFS state.
	FreqGHz, Voltage float64
	// SpeedScale is execution speed relative to nominal (f/f0).
	SpeedScale float64
	// PowerScale is dynamic power relative to nominal (f·V² scaling).
	PowerScale float64
}

// Ladder is one device's ordered DVFS operating points, nominal (fastest)
// first — the shape the governor walks under cap pressure.
type Ladder struct {
	Device string
	Points []Point
}

// LadderFor resolves a device's DVFS states into a ladder of operating
// points. A spec without explicit states yields a single nominal point.
func LadderFor(id string, spec hw.Spec) Ladder {
	states := spec.States
	if len(states) == 0 {
		states = []hw.DVFSState{{Name: "nominal", FreqGHz: 1, Voltage: 1}}
	}
	nom := states[0]
	l := Ladder{Device: id, Points: make([]Point, 0, len(states))}
	for i, st := range states {
		speed, pscale := 1.0, 1.0
		if nom.FreqGHz > 0 && nom.Voltage > 0 {
			speed = st.FreqGHz / nom.FreqGHz
			v := st.Voltage / nom.Voltage
			pscale = speed * v * v
		}
		l.Points = append(l.Points, Point{
			State: i, Name: st.Name,
			FreqGHz: st.FreqGHz, Voltage: st.Voltage,
			SpeedScale: speed, PowerScale: pscale,
		})
	}
	return l
}

// MaxUndervolt is the deepest supported per-task undervolt level.
const MaxUndervolt = 3

// undervoltStepV is the fraction of nominal voltage shaved per level.
const undervoltStepV = 0.05

// UndervoltVoltageScale returns the supply-voltage factor of an undervolt
// level: each level shaves 5% below the operating point's voltage (the
// Sec. III sub-guardband region). Levels are clamped to [0, MaxUndervolt].
func UndervoltVoltageScale(level int) float64 {
	if level <= 0 {
		return 1
	}
	if level > MaxUndervolt {
		level = MaxUndervolt
	}
	return 1 - undervoltStepV*float64(level)
}

// UndervoltPowerScale returns the dynamic-power factor of an undervolt
// level: quadratic in voltage at unchanged frequency (paper Sec. III).
func UndervoltPowerScale(level int) float64 {
	v := UndervoltVoltageScale(level)
	return v * v
}

// SDCProbability returns the per-execution silent-data-corruption
// probability an undervolt level adds on top of the device class's base
// rate: zero inside the guardband, growing ~exponentially below it — the
// Fig. 5 fault-density curve collapsed to three steps.
func SDCProbability(level int) float64 {
	if level <= 0 {
		return 0
	}
	if level > MaxUndervolt {
		level = MaxUndervolt
	}
	return 2e-4 * math.Pow(4, float64(level-1))
}

// Ledger is the shared fleet power-cap ledger: one watt budget covering
// the static (idle) draw of every healthy device plus the dynamic draw of
// every admitted task, across all concurrently executing jobs. It is the
// sibling of the engine's core-admission ledger and is safe for concurrent
// use. Each device has one slot in a map whose keys are fixed at
// construction, so a call makes a single lookup. Three reads take no lock:
// OperatingPoint loads the slot's atomic state index (and a governor that
// never throttles answers without the lookup), Rescales loads the count of
// operating-point changes, which a runtime compares before each event to
// learn whether any point moved since its last sync, and Draw loads the
// fleet draw that every change re-publishes under mu. Every write happens
// under mu; a point is written before the rescale count is bumped, so a
// reader that sees the new count sees the new point. IDs the ledger was
// not built with are refused, draw nothing and never throttle a sibling.
type Ledger struct {
	mu   sync.Mutex
	capW energy.Watts // fixed at construction
	gov  Kind

	order []*ledgerDev          // slots in construction order: the governor's tie-break
	devs  map[string]*ledgerDev // read-only after NewLedger

	idleTotal energy.Watts
	dynDraw   energy.Watts
	draw      atomic.Uint64 // float64 bits of idleTotal+dynDraw
	peakW     energy.Watts
	stalls    uint64
	rescales  atomic.Uint64 // operating-point changes, bumped after the point is written
	gen       chan struct{} // handed out by Changed, closed by the next change; nil until taken
}

// ledgerDev is one device's slot in the ledger.
type ledgerDev struct {
	ladder Ladder       // fixed at construction
	point  atomic.Int32 // governor-prescribed state index
	idleW  energy.Watts // fixed at construction
	drawW  energy.Watts // granted dynamic draw
	drawn  bool         // ever granted a draw: a sibling-throttle candidate
	lost   bool
}

// NewLedger builds a ledger over the reference devices with the given cap
// (watts; zero or negative means uncapped) and governor. The static draw
// of every device is charged from the start — idle silicon is not free,
// which is the accounting gap this subsystem closes.
func NewLedger(capW energy.Watts, devices []*hw.Device, gov Kind) *Ledger {
	l := &Ledger{
		capW:  capW,
		gov:   gov,
		order: make([]*ledgerDev, 0, len(devices)),
		devs:  make(map[string]*ledgerDev, len(devices)),
	}
	if capW <= 0 {
		l.capW = math.Inf(1)
	}
	for _, d := range devices {
		slot := &ledgerDev{ladder: LadderFor(d.ID, d.Spec), idleW: d.Spec.IdleWatts}
		l.order = append(l.order, slot)
		l.devs[d.ID] = slot
		l.idleTotal += d.Spec.IdleWatts
	}
	l.peakW = l.idleTotal
	l.publishLocked()
	return l
}

// FleetPeakWatts sums the nominal full-utilisation draw of the devices —
// the reference a relative cap (e.g. "60% of fleet peak") is set against.
func FleetPeakWatts(devices []*hw.Device) energy.Watts {
	total := energy.Watts(0)
	for _, d := range devices {
		total += d.Spec.PeakWatts
	}
	return total
}

// Cap returns the watt budget (+Inf when uncapped).
func (l *Ledger) Cap() energy.Watts { return l.capW }

// Capped reports whether a finite cap is armed.
func (l *Ledger) Capped() bool { return !math.IsInf(l.capW, 1) }

// Governor returns the governor kind.
func (l *Ledger) Governor() Kind { return l.gov }

// Draw returns the current modelled fleet draw: static power of healthy
// devices plus every granted dynamic watt. It takes no lock.
func (l *Ledger) Draw() energy.Watts {
	return math.Float64frombits(l.draw.Load())
}

// publishLocked re-publishes the fleet draw Draw reads.
func (l *Ledger) publishLocked() {
	l.draw.Store(math.Float64bits(l.idleTotal + l.dynDraw))
}

// IdleWatts returns the static draw of the surviving fleet.
func (l *Ledger) IdleWatts() energy.Watts {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.idleTotal
}

// DrawOf returns a device's current draw (static + granted dynamic); zero
// for a lost or unknown device.
func (l *Ledger) DrawOf(deviceID string) energy.Watts {
	d := l.devs[deviceID]
	if d == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if d.lost {
		return 0
	}
	return d.idleW + d.drawW
}

// PeakDraw returns the high-water mark of the fleet draw — the peak-draw
// witness: it can never exceed Cap.
func (l *Ledger) PeakDraw() energy.Watts {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peakW
}

// Stalls counts refused draws (cap-pressure signal).
func (l *Ledger) Stalls() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stalls
}

// Rescales counts governor operating-point changes. It takes no lock, and
// every change stores its new point before the count moves.
func (l *Ledger) Rescales() uint64 { return l.rescales.Load() }

// OperatingPoint returns the DVFS state index the governor currently
// prescribes for a device (0 = nominal, also for unknown devices). Only
// PackAndThrottle ever moves a point, so under any other governor the
// answer is 0 without a lookup.
func (l *Ledger) OperatingPoint(deviceID string) int {
	if l.gov != PackAndThrottle {
		return 0
	}
	if d := l.devs[deviceID]; d != nil {
		return int(d.point.Load())
	}
	return 0
}

// Ladder returns a device's resolved DVFS ladder.
func (l *Ledger) Ladder(deviceID string) Ladder {
	if d := l.devs[deviceID]; d != nil {
		return d.ladder
	}
	return Ladder{}
}

// TryDraw claims watts of dynamic draw for a task on a device; it fails
// (without blocking) when the grant would push the fleet draw over the
// cap, or the device is lost or unknown. On a cap refusal the
// PackAndThrottle governor steps the device down its DVFS ladder (or, at
// the ladder floor, the hungriest throttleable sibling), so the parked job
// re-scores the placement at a cheaper operating point when it wakes.
func (l *Ledger) TryDraw(deviceID string, w energy.Watts) bool {
	d := l.devs[deviceID]
	l.mu.Lock()
	defer l.mu.Unlock()
	if d == nil || d.lost {
		l.stalls++
		return false
	}
	if l.idleTotal+l.dynDraw+w > l.capW {
		l.stalls++
		if l.gov == PackAndThrottle {
			l.throttleLocked(d)
		}
		// Wake parked jobs even without a reshape: a sibling release may
		// have raced with this refusal.
		l.wakeLocked()
		return false
	}
	d.drawW += w
	d.drawn = true
	l.dynDraw += w
	l.publishLocked()
	if draw := l.idleTotal + l.dynDraw; draw > l.peakW {
		l.peakW = draw
	}
	return true
}

// ReleaseDraw returns granted watts and wakes every parked job. Releasing
// on a lost device is a no-op: DeviceLost already zeroed its draw, and
// late revocations from jobs crossing the crash on their private clocks
// must not double-release. Releasing on an unknown device is a no-op too.
// Under PackAndThrottle a relaxed draw steps the most-throttled device
// back toward nominal.
func (l *Ledger) ReleaseDraw(deviceID string, w energy.Watts) {
	d := l.devs[deviceID]
	if d == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !d.lost {
		if w > d.drawW {
			w = d.drawW
		}
		d.drawW -= w
		l.dynDraw -= w
		l.publishLocked()
	}
	if l.gov == PackAndThrottle {
		l.unthrottleLocked()
	}
	l.wakeLocked()
}

// Changed returns a channel closed on the next release, reshape or fleet
// event after this call — the park/wake protocol of admission stalls. The
// channel is made on demand and replaced only after it was closed, so
// changes nobody waits for allocate nothing.
func (l *Ledger) Changed() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen == nil {
		l.gen = make(chan struct{})
	}
	return l.gen
}

// DeviceLost removes a device from the power ledger: its static draw
// stops being charged and every outstanding dynamic grant on it is
// released at once (the core ledger's revocations will call ReleaseDraw
// later from each job's clock; those become no-ops). Parked jobs are
// woken — a loss frees watt headroom. Under PackAndThrottle the freed
// headroom may step throttled survivors back up.
func (l *Ledger) DeviceLost(deviceID string) {
	d := l.devs[deviceID]
	if d == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if d.lost {
		return
	}
	d.lost = true
	l.idleTotal -= d.idleW
	l.dynDraw -= d.drawW
	d.drawW = 0
	l.publishLocked()
	if l.gov == PackAndThrottle {
		l.unthrottleLocked()
	}
	l.wakeLocked()
}

// Lost reports whether the device was removed from the power ledger.
func (l *Ledger) Lost(deviceID string) bool {
	d := l.devs[deviceID]
	if d == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return d.lost
}

// wakeLocked closes the channel handed out by Changed, if any.
func (l *Ledger) wakeLocked() {
	if l.gen != nil {
		close(l.gen)
		l.gen = nil
	}
}

// throttleLocked steps a device one rung down its DVFS ladder; if the
// device is already at the floor, the healthy device with the largest
// dynamic draw that still has a lower rung is stepped instead (among
// devices ever drawn on; ties go to the earliest in construction order).
func (l *Ledger) throttleLocked(self *ledgerDev) {
	if l.stepDownLocked(self) {
		return
	}
	var best *ledgerDev
	bestDraw := energy.Watts(-1)
	for _, d := range l.order {
		if !d.drawn || d == self || d.lost {
			continue
		}
		if int(d.point.Load()) < len(d.ladder.Points)-1 && d.drawW > bestDraw {
			best, bestDraw = d, d.drawW
		}
	}
	if best != nil {
		l.stepDownLocked(best)
	}
}

// stepDownLocked lowers one device's operating point if a rung exists.
func (l *Ledger) stepDownLocked(d *ledgerDev) bool {
	if d.lost || int(d.point.Load()) >= len(d.ladder.Points)-1 {
		return false
	}
	d.point.Add(1)
	l.rescales.Add(1)
	return true
}

// unthrottleLocked steps the most-throttled healthy device one rung back
// toward nominal once the draw has relaxed below 70% of the cap —
// hysteresis so the ladder does not flap on every release. Ties go to the
// earliest device in construction order.
func (l *Ledger) unthrottleLocked() {
	if l.idleTotal+l.dynDraw > 0.7*l.capW {
		return
	}
	var best *ledgerDev
	depth := int32(0)
	for _, d := range l.order {
		if p := d.point.Load(); !d.lost && p > depth {
			best, depth = d, p
		}
	}
	if best != nil {
		best.point.Add(-1)
		l.rescales.Add(1)
	}
}
