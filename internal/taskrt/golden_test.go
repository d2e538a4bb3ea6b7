package taskrt_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"legato/internal/energy"
	"legato/internal/engine"
	"legato/internal/hw"
	"legato/internal/power"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// cloudDevices builds the standard RECS|BOX cloud platform on eng.
func cloudDevices(tb testing.TB, eng *sim.Engine) []*hw.Device {
	tb.Helper()
	box, err := hw.StandardCloudBox(eng, "recs0")
	if err != nil {
		tb.Fatal(err)
	}
	var devs []*hw.Device
	for _, ms := range box.Microservers() {
		devs = append(devs, ms.Device)
	}
	return devs
}

// goldenGraph submits a seeded random DAG: every task reads one or two
// earlier regions and writes a fresh one, with mixed widths, priorities,
// class targets and critical (replica-voted) tasks.
func goldenGraph(tb testing.TB, rt *taskrt.Runtime, seed int64) {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	regions := []*taskrt.Data{rt.Data("src", 1<<16)}
	targets := [][]hw.Class{nil, nil, {hw.CPUx86}, {hw.FPGA, hw.GPU}, {hw.CPUARM, hw.CPUx86}}
	for i := 0; i < 80; i++ {
		ins := []*taskrt.Data{regions[r.Intn(len(regions))]}
		if r.Intn(3) == 0 {
			ins = append(ins, regions[r.Intn(len(regions))])
		}
		out := rt.Data(fmt.Sprintf("d%d", i), int64(1+r.Intn(64))<<10)
		regions = append(regions, out)
		if err := rt.Submit(taskrt.Task{
			Name:     fmt.Sprintf("t%d", i),
			Gops:     5 + 45*r.Float64(),
			Cores:    []int{1, 1, 1, 2, 4}[r.Intn(5)],
			Targets:  targets[r.Intn(len(targets))],
			Priority: r.Intn(4) - 1,
			Critical: r.Intn(4) == 0,
			In:       ins,
			Out:      []*taskrt.Data{out},
		}); err != nil {
			tb.Fatal(err)
		}
	}
}

// goldenRun executes the golden graph under one policy on the cloud
// platform with a real Fleet and a Ledger attached (capped at capFrac of
// fleet peak under the given governor), a crash of the first FPGA, a 4×
// silent degrade (and half-capacity shrink) of the first x86 CPU, a
// deterministic SDC oracle and 1.5× hedging. It also returns the governor's
// rescale count.
func goldenRun(tb testing.TB, policy taskrt.Policy, gov power.Kind, capFrac float64) (*taskrt.Result, uint64) {
	tb.Helper()
	ref := cloudDevices(tb, sim.NewEngine())
	fleet := engine.NewFleet(ref)
	ledger := power.NewLedger(capFrac*power.FleetPeakWatts(ref), ref, gov)
	fleet.AttachPower(ledger)

	eng := sim.NewEngine()
	devs := cloudDevices(tb, eng)
	rt := taskrt.New(eng, devs, policy)
	rt.SetAdmission(fleet)
	rt.SetPowerAdmission(ledger)
	rt.SetHedging(taskrt.HedgePolicy{Multiplier: 1.5})
	rt.SetRetryPolicy(4, sim.Time(1e6))
	rt.SetCheckpoint(8,
		func(bytes int64) sim.Time { return sim.Time(bytes) * 50 },
		func(bytes int64) sim.Time { return sim.Time(bytes) * 20 })
	rt.SetCorruptor(func(rec taskrt.Record) bool {
		h := fnv.New32a()
		fmt.Fprintf(h, "%s/%d", rec.Name, rec.Attempts)
		return h.Sum32()%11 == 0
	})
	var fpga, x86 string
	for _, d := range devs {
		if fpga == "" && d.Spec.Class == hw.FPGA {
			fpga = d.ID
		}
		if x86 == "" && d.Spec.Class == hw.CPUx86 {
			x86 = d.ID
		}
	}
	rt.ScheduleFault(sim.Time(400e6), func() {
		fleet.Fail(fpga)
		rt.FailDevice(fpga)
	})
	rt.ScheduleFault(sim.Time(150e6), func() {
		fleet.SetCapacity(x86, fleet.Capacity(x86)/2)
		rt.DegradeDevice(x86, 4)
	})
	goldenGraph(tb, rt, 20201)
	res, err := rt.Run()
	if err != nil {
		tb.Fatalf("%v: %v", policy, err)
	}
	for _, d := range ref {
		if n := fleet.InUse(d.ID); n != 0 {
			tb.Fatalf("%v: %d cores of %s still held after the run", policy, n, d.ID)
		}
		if p := fleet.Peak(d.ID); p > fleet.Capacity(d.ID) && !fleet.Lost(d.ID) {
			tb.Fatalf("%v: %s peak %d over capacity %d", policy, d.ID, p, fleet.Capacity(d.ID))
		}
	}
	if ledger.PeakDraw() > ledger.Cap() {
		tb.Fatalf("%v: peak draw %v over cap %v", policy, ledger.PeakDraw(), ledger.Cap())
	}
	return res, ledger.Rescales()
}

// recordsDigest hashes the fields of every record that placement decides.
func recordsDigest(recs []taskrt.Record) string {
	h := sha256.New()
	for _, r := range recs {
		fmt.Fprintf(h, "%d %s %s %d %d %x %d %t %t\n", r.ID, r.Name, r.Device,
			int64(r.Start), int64(r.End), math.Float64bits(float64(r.EnergyJ)),
			r.Attempts, r.Hedged, r.Corrupted)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDispatchGolden pins the records of the golden scenario under every
// policy to digests captured before the dispatch hot path was optimised:
// filter order, copy-free scoring and the binary-search ready queue must
// not move a single placement, instant or joule. The RaceToIdle digests
// (60% cap, keyed by policy) never see an operating point move; the
// PackAndThrottle ones (30% cap, keyed "pack-and-throttle/<policy>") pin
// the path where the governor throttles and restores devices mid-run.
func TestDispatchGolden(t *testing.T) {
	want := map[string]string{}
	f, err := os.Open("testdata/dispatch_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 {
			want[fields[0]] = fields[1]
		}
	}
	for _, c := range []struct {
		gov     power.Kind
		capFrac float64
	}{{power.RaceToIdle, 0.6}, {power.PackAndThrottle, 0.3}} {
		for _, policy := range []taskrt.Policy{taskrt.MinTime, taskrt.MinEnergy, taskrt.MinEDP} {
			key := policy.String()
			if c.gov != power.RaceToIdle {
				key = c.gov.String() + "/" + key
			}
			res, rescales := goldenRun(t, policy, c.gov, c.capFrac)
			if res.Retries == 0 || res.Restores+res.SDCDetected == 0 || res.HedgesLaunched == 0 {
				t.Errorf("%s: scenario misses a recovery path (retries=%d restores=%d sdc=%d hedges=%d)",
					key, res.Retries, res.Restores, res.SDCDetected, res.HedgesLaunched)
			}
			if c.gov == power.PackAndThrottle && rescales == 0 {
				t.Errorf("%s: the governor never moved an operating point", key)
			}
			if got := recordsDigest(res.Records); got != want[key] {
				t.Errorf("%s: records digest %s, want %s", key, got, want[key])
			}
		}
	}
}

// e13Graph submits the E13 mixed-width job: one 2048-core GPU chain, three
// 16-core chains and one 4-core chain, four tasks each.
func e13Graph(tb testing.TB, rt *taskrt.Runtime) {
	tb.Helper()
	chains := []struct {
		cores int
		gops  float64
	}{{2048, 4500}, {16, 40}, {16, 40}, {16, 40}, {4, 40}}
	for c, ch := range chains {
		prev := rt.Data(fmt.Sprintf("c%d/d0", c), 1024)
		for i := 0; i < 4; i++ {
			next := rt.Data(fmt.Sprintf("c%d/d%d", c, i+1), 1024)
			if err := rt.Submit(taskrt.Task{
				Name: fmt.Sprintf("c%d/t%d", c, i), Gops: ch.gops, Cores: ch.cores,
				In: []*taskrt.Data{prev}, Out: []*taskrt.Data{next},
			}); err != nil {
				tb.Fatal(err)
			}
			prev = next
		}
	}
}

// TestGovernorDeterministic runs the E13 job twice on a fresh Fleet and a
// Ledger capped at 60% of fleet peak under PackAndThrottle. With one
// runtime nothing races, so the governor's throttle and unthrottle choices
// — and through them every record and joule — must repeat exactly.
func TestGovernorDeterministic(t *testing.T) {
	run := func() (string, energy.Joules) {
		ref := cloudDevices(t, sim.NewEngine())
		fleet := engine.NewFleet(ref)
		ledger := power.NewLedger(0.6*power.FleetPeakWatts(ref), ref, power.PackAndThrottle)
		fleet.AttachPower(ledger)
		eng := sim.NewEngine()
		rt := taskrt.New(eng, cloudDevices(t, eng), taskrt.MinTime)
		rt.SetAdmission(fleet)
		rt.SetPowerAdmission(ledger)
		e13Graph(t, rt)
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		if ledger.Rescales() == 0 {
			t.Fatal("the cap never made the governor rescale")
		}
		return recordsDigest(res.Records), res.EnergyJ
	}
	d0, e0 := run()
	for i := 0; i < 20; i++ {
		if d, e := run(); d != d0 || e != e0 {
			t.Fatalf("run %d: records %s energy %v, first run %s energy %v", i+1, d, e, d0, e0)
		}
	}
}
