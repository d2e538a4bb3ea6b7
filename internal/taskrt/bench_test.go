package taskrt_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"legato/internal/engine"
	"legato/internal/hw"
	"legato/internal/power"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// chainsJob builds one job of 32 independent chains of eight one-core
// tasks under MinEnergy on a mirror of the cloud platform, with a real
// Fleet and an uncapped Ledger attached, and counts its placements.
func chainsJob(tb testing.TB, ref []*hw.Device, placed *uint64) *taskrt.Runtime {
	tb.Helper()
	const chains, depth = 32, 8
	fleet := engine.NewFleet(ref)
	ledger := power.NewLedger(0, ref, power.RaceToIdle)
	fleet.AttachPower(ledger)
	eng := sim.NewEngine()
	rt := taskrt.New(eng, hw.Mirror(eng, ref), taskrt.MinEnergy)
	rt.SetAdmission(fleet)
	rt.SetPowerAdmission(ledger)
	rt.AddHooks(taskrt.Hooks{Placed: func(string, string, int, sim.Time) { *placed++ }})
	for c := 0; c < chains; c++ {
		prev := rt.Data(fmt.Sprintf("c%d/d0", c), 1<<10)
		for d := 0; d < depth; d++ {
			next := rt.Data(fmt.Sprintf("c%d/d%d", c, d+1), 1<<10)
			if err := rt.Submit(taskrt.Task{
				Name: fmt.Sprintf("c%d/t%d", c, d), Gops: 12.5 + float64((c*depth+d)%21),
				In: []*taskrt.Data{prev}, Out: []*taskrt.Data{next},
			}); err != nil {
				tb.Fatal(err)
			}
			prev = next
		}
	}
	return rt
}

// BenchmarkDispatchChains runs the chainsJob graph — the widest ready
// queue, so the time goes to dispatch, scoring and the per-device ledger
// reads. Mirroring and submission are outside the timed region; ns and
// allocs are reported per placed task and cover Run alone.
func BenchmarkDispatchChains(b *testing.B) {
	ref := cloudDevices(b, sim.NewEngine())
	var mallocs, placed uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rt := chainsJob(b, ref, &placed)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		if _, err := rt.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(placed), "ns/placed")
	b.ReportMetric(float64(mallocs)/float64(placed), "allocs/placed")
}

// TestDispatchChainsAllocs pins the heap allocations per placed task on
// the BenchmarkDispatchChains graph: the execution record, plus the
// engine's event tables and the ready queue growing to their peak. Event
// scheduling itself allocates nothing (no closure, no event object), and
// a chain task stores its one successor and its region's one reader
// inline.
func TestDispatchChainsAllocs(t *testing.T) {
	ref := cloudDevices(t, sim.NewEngine())
	var placed uint64
	var ms runtime.MemStats
	best := math.Inf(1)
	for i := 0; i < 6; i++ { // the first run warms up lazily built state
		placed = 0
		rt := chainsJob(t, ref, &placed)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		best = math.Min(best, float64(ms.Mallocs-before)/float64(placed))
	}
	if best > 1.1 {
		t.Fatalf("%.3f allocs per placed task, want <= 1.1", best)
	}
	t.Logf("%.3f allocs per placed task", best)
}
