package experiments

import (
	"context"
	"fmt"
	"strings"

	"legato/internal/engine"
	"legato/internal/hw"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// --- E11: concurrent multi-job engine ----------------------------------

// MultiJobRow is one worker-pool width of the throughput sweep.
type MultiJobRow struct {
	Workers         int
	Jobs            int
	TasksCompleted  int
	TotalJobTime    sim.Time // sum of per-job makespans (serial cost)
	SessionMakespan sim.Time // fleet time under the greedy lane schedule
	SpeedupX        float64  // vs the single-worker session of the sweep
	AdmissionStalls uint64
	EnergyJ         float64 // platform energy (idle + dynamic) over the session
	AvgPowerW       float64 // EnergyJ over the session makespan
	PeakDrawW       float64 // high-water mark of the modelled fleet draw
}

// cloudFleet builds the standard RECS|BOX device list, the same platform
// the public API uses for CloudPlatform. It is a reference fleet: jobs run
// on mirrors of it, so its own clock never advances.
func cloudFleet() ([]*hw.Device, error) {
	box, err := hw.StandardCloudBox(sim.NewEngine(), "recs0")
	if err != nil {
		return nil, err
	}
	var devices []*hw.Device
	for _, ms := range box.Microservers() {
		devices = append(devices, ms.Device)
	}
	return devices, nil
}

// multiJobGraph fills one job with `chains` independent chains of `depth`
// dependent tasks each — enough structure for the per-job scheduler to
// matter, with no cross-job dependences by construction.
func multiJobGraph(rt *taskrt.Runtime, name string, chains, depth int) error {
	for c := 0; c < chains; c++ {
		prev := rt.Data(fmt.Sprintf("%s/c%d/d0", name, c), 1024)
		for i := 0; i < depth; i++ {
			next := rt.Data(fmt.Sprintf("%s/c%d/d%d", name, c, i+1), 1024)
			if err := rt.Submit(taskrt.Task{
				Name: fmt.Sprintf("%s/c%d/t%d", name, c, i),
				Gops: 25, Cores: 1,
				In: []*taskrt.Data{prev}, Out: []*taskrt.Data{next},
			}); err != nil {
				return err
			}
			prev = next
		}
	}
	return nil
}

// MultiJob runs the E11 throughput study: `jobs` identical independent
// task graphs pushed through the concurrent job engine at each worker-pool
// width, on the shared cloud fleet. Width 1 is the serial baseline (the
// session makespan equals the sum of job makespans); wider pools overlap
// jobs on the fleet under admission control, and the speedup column is the
// fleet-time ratio against that baseline.
func MultiJob(widths []int, jobs int) ([]MultiJobRow, error) {
	rows := make([]MultiJobRow, 0, len(widths))
	var baseline sim.Time
	for _, w := range widths {
		ref, err := cloudFleet()
		if err != nil {
			return nil, err
		}
		e, err := engine.New(engine.Config{
			Workers: w,
			Policy:  taskrt.MinTime,
			Fleet:   ref,
		})
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		var js []*engine.Job
		for n := 0; n < jobs; n++ {
			j, err := e.NewJob(fmt.Sprintf("job%d", n))
			if err != nil {
				return nil, err
			}
			if err := multiJobGraph(j.Runtime(), j.Name, 4, 5); err != nil {
				return nil, err
			}
			js = append(js, j)
			if err := e.Submit(ctx, j); err != nil {
				return nil, err
			}
		}
		for _, j := range js {
			if _, err := j.Wait(ctx); err != nil {
				return nil, err
			}
		}
		st := e.Stats()
		if err := e.Shutdown(ctx); err != nil {
			return nil, err
		}
		if w == 1 || baseline == 0 {
			baseline = st.SessionMakespan
		}
		rows = append(rows, MultiJobRow{
			Workers:         w,
			Jobs:            jobs,
			TasksCompleted:  st.TasksCompleted,
			TotalJobTime:    st.TotalJobTime,
			SessionMakespan: st.SessionMakespan,
			SpeedupX:        float64(baseline) / float64(st.SessionMakespan),
			AdmissionStalls: st.AdmissionStalls,
			EnergyJ:         st.PlatformEnergyJ,
			AvgPowerW:       st.AvgPowerW,
			PeakDrawW:       st.PeakDrawW,
		})
	}
	return rows, nil
}

// MultiJobTable renders the sweep.
func MultiJobTable(rows []MultiJobRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-6s %-8s %-14s %-16s %-9s %-8s %-10s %-8s %s\n",
		"workers", "jobs", "tasks", "job-time-sum", "session-fleet-t", "speedup", "stalls", "energy-J", "avg-W", "peak-W")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %-6d %-8d %-14v %-16v %-9.2f %-8d %-10.0f %-8.1f %.1f\n",
			r.Workers, r.Jobs, r.TasksCompleted, r.TotalJobTime,
			r.SessionMakespan, r.SpeedupX, r.AdmissionStalls,
			r.EnergyJ, r.AvgPowerW, r.PeakDrawW)
	}
	return b.String()
}
