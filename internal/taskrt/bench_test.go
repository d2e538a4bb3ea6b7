package taskrt_test

import (
	"fmt"
	"runtime"
	"testing"

	"legato/internal/engine"
	"legato/internal/hw"
	"legato/internal/power"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// BenchmarkDispatchChains runs one job of 32 independent chains of eight
// one-core tasks under MinEnergy on a mirror of the cloud platform, with a
// real Fleet and an uncapped Ledger attached — the widest ready queue, so
// the time goes to dispatch, scoring and the per-device ledger reads.
// Mirroring and submission are outside the timed region; ns and allocs
// are reported per placed task and cover Run alone.
func BenchmarkDispatchChains(b *testing.B) {
	const chains, depth = 32, 8
	ref := cloudDevices(b, sim.NewEngine())
	var mallocs, placed uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fleet := engine.NewFleet(ref)
		ledger := power.NewLedger(0, ref, power.RaceToIdle)
		fleet.AttachPower(ledger)
		eng := sim.NewEngine()
		rt := taskrt.New(eng, hw.Mirror(eng, ref), taskrt.MinEnergy)
		rt.SetAdmission(fleet)
		rt.SetPowerAdmission(ledger)
		rt.AddHooks(taskrt.Hooks{Placed: func(string, string, int, sim.Time) { placed++ }})
		for c := 0; c < chains; c++ {
			prev := rt.Data(fmt.Sprintf("c%d/d0", c), 1<<10)
			for d := 0; d < depth; d++ {
				next := rt.Data(fmt.Sprintf("c%d/d%d", c, d+1), 1<<10)
				if err := rt.Submit(taskrt.Task{
					Name: fmt.Sprintf("c%d/t%d", c, d), Gops: 12.5 + float64((c*depth+d)%21),
					In: []*taskrt.Data{prev}, Out: []*taskrt.Data{next},
				}); err != nil {
					b.Fatal(err)
				}
				prev = next
			}
		}
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
