package hw

import (
	"reflect"
	"testing"

	"legato/internal/sim"
)

// A mirror of a used reference fleet equals a freshly built platform:
// same IDs in order and the same specs, but healthy, idle, at the nominal
// DVFS state and drawing idle power on its own clock.
func TestMirrorEqualsFreshPlatform(t *testing.T) {
	cloud := func(eng *sim.Engine) []*Device {
		box, err := StandardCloudBox(eng, "recs0")
		if err != nil {
			t.Fatal(err)
		}
		var devs []*Device
		for _, ms := range box.Microservers() {
			devs = append(devs, ms.Device)
		}
		return devs
	}
	edge := func(eng *sim.Engine) []*Device {
		s, err := MirrorEdgeCPUGPUFPGA(eng, "edge0")
		if err != nil {
			t.Fatal(err)
		}
		var devs []*Device
		for _, m := range s.Modules {
			devs = append(devs, m.Device)
		}
		return devs
	}
	for name, build := range map[string]func(*sim.Engine) []*Device{"cloud": cloud, "edge": edge} {
		t.Run(name, func(t *testing.T) {
			ref := build(sim.NewEngine())
			// Wear the reference: the mirror must not inherit its state.
			if err := ref[0].Acquire(1); err != nil {
				t.Fatal(err)
			}
			if len(ref[1].Spec.States) > 1 {
				if err := ref[1].SetState(1); err != nil {
					t.Fatal(err)
				}
			}
			ref[2].Fail()

			clock := sim.NewEngine()
			got := Mirror(clock, ref)
			want := build(sim.NewEngine())
			if len(got) != len(want) {
				t.Fatalf("mirror has %d devices, fresh platform %d", len(got), len(want))
			}
			for i, d := range got {
				w := want[i]
				if d.ID != w.ID {
					t.Fatalf("device %d: ID %q, want %q", i, d.ID, w.ID)
				}
				if !reflect.DeepEqual(d.Spec, w.Spec) {
					t.Fatalf("%s: spec %+v, want %+v", d.ID, d.Spec, w.Spec)
				}
				if d.StateIndex() != 0 || !d.Healthy() || d.BusyCores() != 0 {
					t.Fatalf("%s: state %d healthy %v busy %d, want nominal, healthy, idle",
						d.ID, d.StateIndex(), d.Healthy(), d.BusyCores())
				}
				if d.Meter().Power() != w.Meter().Power() || d.Meter().Power() != w.Spec.IdleWatts {
					t.Fatalf("%s: meter %v W, fresh %v W, idle %v W", d.ID, d.Meter().Power(), w.Meter().Power(), w.Spec.IdleWatts)
				}
				if d == ref[i] || d.Meter() == ref[i].Meter() {
					t.Fatalf("%s: mirror shares the reference device", d.ID)
				}
			}
			// The mirror meters integrate on the mirror's clock only.
			clock.Schedule(sim.Second, func() {})
			clock.Run()
			if e := got[0].Meter().Energy(); e != float64(got[0].Spec.IdleWatts) {
				t.Fatalf("%s: %v J after 1 s idle, want %v", got[0].ID, e, got[0].Spec.IdleWatts)
			}
		})
	}
}

// Mirroring the cloud fleet costs a fixed handful of allocations, however
// many devices it holds: the devices and their meters come in one block.
func TestMirrorAllocs(t *testing.T) {
	box, err := StandardCloudBox(sim.NewEngine(), "recs0")
	if err != nil {
		t.Fatal(err)
	}
	var ref []*Device
	for _, ms := range box.Microservers() {
		ref = append(ref, ms.Device)
	}
	clock := sim.NewEngine()
	if n := testing.AllocsPerRun(100, func() { Mirror(clock, ref) }); n > 3 {
		t.Fatalf("mirroring %d devices took %v allocations, want <= 3", len(ref), n)
	}
}
