// Package energy implements the power and energy accounting layer of the
// LEGaTO reproduction: power meters that integrate piecewise-constant power
// draw over virtual time, PDU- and PowerSpy-style probes as used by HEATS
// (paper Sec. V, Fig. 7), and report helpers for the experiment harness.
package energy

import (
	"fmt"
	"sort"

	"legato/internal/sim"
)

// Joules is an energy amount in joules.
type Joules = float64

// Watts is a power draw in watts.
type Watts = float64

// Meter integrates piecewise-constant power over virtual time. Set the
// current draw with SetPower; Energy reports the integral so far.
type Meter struct {
	eng *sim.Engine

	name      string
	power     Watts
	lastEdge  sim.Time
	energy    Joules
	peakPower Watts
	samples   []Sample
	sampling  bool
}

// Sample is one recorded (time, power) point.
type Sample struct {
	At    sim.Time
	Power Watts
}

// NewMeter creates a meter attached to the simulation clock.
func NewMeter(eng *sim.Engine, name string) *Meter {
	m := new(Meter)
	m.Init(eng, name)
	return m
}

// Init makes m a fresh meter attached to the simulation clock, as NewMeter
// does, so a caller can lay out many meters in one block of its own.
func (m *Meter) Init(eng *sim.Engine, name string) {
	*m = Meter{eng: eng, name: name, lastEdge: eng.Now()}
}

// Name returns the meter's identifier.
func (m *Meter) Name() string { return m.name }

// EnableSampling records a sample at every power edge (for traces/plots).
func (m *Meter) EnableSampling() { m.sampling = true }

// Samples returns the recorded power edges.
func (m *Meter) Samples() []Sample { return m.samples }

// SetPower accrues energy at the previous draw up to now, then switches the
// draw to p.
func (m *Meter) SetPower(p Watts) {
	m.accrue()
	m.power = p
	if p > m.peakPower {
		m.peakPower = p
	}
	if m.sampling {
		m.samples = append(m.samples, Sample{At: m.eng.Now(), Power: p})
	}
}

// AddPower adjusts the current draw by delta watts (may be negative).
func (m *Meter) AddPower(delta Watts) { m.SetPower(m.power + delta) }

// Power returns the instantaneous draw.
func (m *Meter) Power() Watts { return m.power }

// PeakPower returns the maximum draw observed.
func (m *Meter) PeakPower() Watts { return m.peakPower }

// Energy returns joules accumulated up to the current virtual time.
func (m *Meter) Energy() Joules {
	m.accrue()
	return m.energy
}

// AddEnergy deposits a one-shot energy amount (e.g. a task's modelled cost).
func (m *Meter) AddEnergy(j Joules) {
	m.accrue()
	m.energy += j
}

func (m *Meter) accrue() {
	now := m.eng.Now()
	if now > m.lastEdge {
		m.energy += m.power * sim.ToSeconds(now-m.lastEdge)
		m.lastEdge = now
	}
}

// Probe is the monitoring-facing view of a power source, as exposed to the
// HEATS monitoring module by PDUs (per-node) and PowerSpy devices
// (per-outlet) in the paper's testbed.
type Probe interface {
	// Read returns the instantaneous power draw.
	Read() Watts
	// ProbeName identifies the probe for telemetry.
	ProbeName() string
}

// MeterProbe adapts a Meter into a Probe.
type MeterProbe struct{ M *Meter }

// Read returns the meter's instantaneous power.
func (p MeterProbe) Read() Watts { return p.M.Power() }

// ProbeName returns the underlying meter name.
func (p MeterProbe) ProbeName() string { return p.M.Name() }

// Aggregate sums several probes, like a PDU covering a whole chassis.
type Aggregate struct {
	Name   string
	Probes []Probe
}

// Read returns the summed instantaneous power of all members.
func (a *Aggregate) Read() Watts {
	total := Watts(0)
	for _, p := range a.Probes {
		total += p.Read()
	}
	return total
}

// ProbeName identifies the aggregate probe.
func (a *Aggregate) ProbeName() string { return a.Name }

// Report is a per-component energy summary for experiment output.
type Report struct {
	rows map[string]Joules
}

// NewReport creates an empty report.
func NewReport() *Report { return &Report{rows: make(map[string]Joules)} }

// Add deposits energy attributed to a component.
func (r *Report) Add(component string, j Joules) { r.rows[component] += j }

// Get returns the energy attributed to a component.
func (r *Report) Get(component string) Joules { return r.rows[component] }

// Total returns the summed energy over all components.
func (r *Report) Total() Joules {
	t := Joules(0)
	for _, v := range r.rows {
		t += v
	}
	return t
}

// String renders the report as an aligned table, components sorted by name.
func (r *Report) String() string {
	keys := make([]string, 0, len(r.rows))
	for k := range r.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := fmt.Sprintf("%-24s %12s\n", "component", "energy (J)")
	for _, k := range keys {
		s += fmt.Sprintf("%-24s %12.3f\n", k, r.rows[k])
	}
	s += fmt.Sprintf("%-24s %12.3f\n", "TOTAL", r.Total())
	return s
}
