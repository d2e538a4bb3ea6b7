package experiments

import (
	"context"
	"fmt"
	"strings"

	"legato/internal/engine"
	"legato/internal/power"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// --- E13: fleet power cap and energy-aware placement ---------------------

// PowerCapResult is the outcome of the E13 study: the same multi-job
// session run once uncapped and once under a fleet power cap at 60% of the
// nominal peak draw, plus an uncapped policy comparison on measured
// energy-delay product. The gate the benchmark enforces: the capped
// session's peak draw never exceeds the cap (peak-draw witness), the cap
// actually bound (power stalls observed), makespan inflation stays ≤ 1.5×,
// and MinEDP beats MinTime on measured EDP.
type PowerCapResult struct {
	Jobs, Workers int
	// FleetPeakW is the nominal full-utilisation draw of the fleet; CapW
	// is the armed budget (60% of it); IdleW the static floor.
	FleetPeakW, CapW, IdleW float64

	// Uncapped vs capped session, same workload and MinTime policy.
	BaselineMakespan, CappedMakespan sim.Time
	InflationX                       float64
	BaselinePeakW, CappedPeakW       float64
	BaselineAvgW, CappedAvgW         float64
	BaselineEnergyJ, CappedEnergyJ   float64 // platform energy (idle+dynamic)
	PowerStalls                      uint64
	GovernorRescales                 uint64
	// CapViolated is the peak-draw witness: true iff the capped session's
	// fleet draw ever exceeded the cap. Must be false.
	CapViolated   bool
	JobsCompleted int

	// Measured energy-delay product (task energy × session makespan, J·s)
	// of uncapped sessions under each placement policy.
	MinTimeEDP, MinEnergyEDP, MinEDPEDP float64
}

// powerGraph fills one job with four independent chains of four tasks,
// mixed widths chosen against the RECS|BOX catalogue so the study has
// teeth: a 2048-core GPU burst only the GTX can host (≈134 W dynamic),
// two 16-core chains (the MinTime/MinEDP fork: Xeon is fastest at 65 W,
// Jetson is 5× slower at 0.3 W), and a 4-core FPGA chain. One job's
// concurrent draw already exceeds a 60%-of-peak cap, so the cap binds
// deterministically, independent of wall-clock job overlap.
func powerGraph(rt *taskrt.Runtime, name string) error {
	// The GPU chain is the longest (≈2.5 s on the only device that can
	// host it), so every policy shares the same critical path and the EDP
	// comparison reduces to the energy of the 16-core chains — where the
	// policies genuinely fork: MinTime takes the Xeons (fast, 65 W
	// dynamic), MinEDP the Jetsons (5× slower per task but 0.3 W, and
	// their chains still finish inside the GPU chain's shadow).
	chains := []struct {
		cores int
		gops  float64
	}{
		{2048, 4500}, // gpu-burst: GTX-only, the critical path
		{16, 40},     // cpu-wide: Xeon (fast, hot) vs Jetson (slow, cool)
		{16, 40},
		{16, 40},
		{4, 40}, // fpga-sized
	}
	for c, ch := range chains {
		prev := rt.Data(fmt.Sprintf("%s/c%d/d0", name, c), 1024)
		for i := 0; i < 4; i++ {
			next := rt.Data(fmt.Sprintf("%s/c%d/d%d", name, c, i+1), 1024)
			if err := rt.Submit(taskrt.Task{
				Name: fmt.Sprintf("%s/c%d/t%d", name, c, i),
				Gops: ch.gops, Cores: ch.cores,
				In: []*taskrt.Data{prev}, Out: []*taskrt.Data{next},
			}); err != nil {
				return err
			}
			prev = next
		}
	}
	return nil
}

// powerSession runs one session of `jobs` power-graph jobs on the cloud
// fleet under the given policy, cap (0 = uncapped) and governor.
func powerSession(jobs, workers int, policy taskrt.Policy, capW float64, gov power.Kind) (engine.Stats, error) {
	ref, err := cloudFleet()
	if err != nil {
		return engine.Stats{}, err
	}
	e, err := engine.New(engine.Config{
		Workers:   workers,
		Policy:    policy,
		Fleet:     ref,
		PowerCapW: capW,
		Governor:  gov,
	})
	if err != nil {
		return engine.Stats{}, err
	}
	ctx := context.Background()
	var js []*engine.Job
	for n := 0; n < jobs; n++ {
		j, err := e.NewJob(fmt.Sprintf("job%d", n))
		if err != nil {
			return engine.Stats{}, err
		}
		if err := powerGraph(j.Runtime(), j.Name); err != nil {
			return engine.Stats{}, err
		}
		js = append(js, j)
		if err := e.Submit(ctx, j); err != nil {
			return engine.Stats{}, err
		}
	}
	for _, j := range js {
		if _, err := j.Wait(ctx); err != nil {
			return engine.Stats{}, fmt.Errorf("job %s: %w", j.Name, err)
		}
	}
	st := e.Stats()
	if err := e.Shutdown(ctx); err != nil {
		return engine.Stats{}, err
	}
	return st, nil
}

// measuredEDP is a session's energy-delay product: dynamic task energy
// times fleet makespan, in joule-seconds.
func measuredEDP(st engine.Stats) float64 {
	return st.EnergyJ * sim.ToSeconds(st.SessionMakespan)
}

// PowerCap runs the E13 study: an uncapped baseline session, the same
// session under a power cap at 60% of the fleet's nominal peak draw with
// the pack-and-throttle governor, and an uncapped policy sweep (MinTime,
// MinEnergy, MinEDP) compared on measured EDP. Every session runs on
// private virtual clocks, so the whole study is deterministic.
func PowerCap(jobs, workers int) (*PowerCapResult, error) {
	ref, err := cloudFleet()
	if err != nil {
		return nil, err
	}
	fleetPeak := float64(power.FleetPeakWatts(ref))
	capW := 0.6 * fleetPeak

	base, err := powerSession(jobs, workers, taskrt.MinTime, 0, power.RaceToIdle)
	if err != nil {
		return nil, fmt.Errorf("experiments: E13 baseline: %w", err)
	}
	if base.SessionMakespan <= 0 {
		return nil, fmt.Errorf("experiments: E13 baseline produced no makespan")
	}
	capped, err := powerSession(jobs, workers, taskrt.MinTime, capW, power.PackAndThrottle)
	if err != nil {
		return nil, fmt.Errorf("experiments: E13 capped session: %w", err)
	}

	minTime, err := powerSession(jobs, workers, taskrt.MinTime, 0, power.RaceToIdle)
	if err != nil {
		return nil, fmt.Errorf("experiments: E13 MinTime sweep: %w", err)
	}
	minEnergy, err := powerSession(jobs, workers, taskrt.MinEnergy, 0, power.RaceToIdle)
	if err != nil {
		return nil, fmt.Errorf("experiments: E13 MinEnergy sweep: %w", err)
	}
	minEDP, err := powerSession(jobs, workers, taskrt.MinEDP, 0, power.RaceToIdle)
	if err != nil {
		return nil, fmt.Errorf("experiments: E13 MinEDP sweep: %w", err)
	}

	return &PowerCapResult{
		Jobs: jobs, Workers: workers,
		FleetPeakW:       fleetPeak,
		CapW:             capW,
		IdleW:            capBaselineIdle(base),
		BaselineMakespan: base.SessionMakespan,
		CappedMakespan:   capped.SessionMakespan,
		InflationX:       float64(capped.SessionMakespan) / float64(base.SessionMakespan),
		BaselinePeakW:    base.PeakDrawW,
		CappedPeakW:      capped.PeakDrawW,
		BaselineAvgW:     base.AvgPowerW,
		CappedAvgW:       capped.AvgPowerW,
		BaselineEnergyJ:  base.PlatformEnergyJ,
		CappedEnergyJ:    capped.PlatformEnergyJ,
		PowerStalls:      capped.PowerStalls,
		GovernorRescales: capped.GovernorRescales,
		CapViolated:      capped.PeakDrawW > capW,
		JobsCompleted:    capped.JobsCompleted,
		MinTimeEDP:       measuredEDP(minTime),
		MinEnergyEDP:     measuredEDP(minEnergy),
		MinEDPEDP:        measuredEDP(minEDP),
	}, nil
}

// capBaselineIdle extracts the static fleet draw from a session's energy
// split (platform energy minus dynamic energy, over the makespan).
func capBaselineIdle(st engine.Stats) float64 {
	sec := sim.ToSeconds(st.SessionMakespan)
	if sec <= 0 {
		return 0
	}
	return (st.PlatformEnergyJ - st.EnergyJ) / sec
}

// PowerCapTable renders the E13 result.
func PowerCapTable(r *PowerCapResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E13: %d jobs, %d workers — fleet peak %.0f W, idle %.0f W, cap %.0f W (60%%)\n",
		r.Jobs, r.Workers, r.FleetPeakW, r.IdleW, r.CapW)
	fmt.Fprintf(&b, "%-12s %-14s %-10s %-10s %-10s %-12s\n",
		"", "makespan", "peak-W", "avg-W", "energy-J", "inflation")
	fmt.Fprintf(&b, "%-12s %-14v %-10.1f %-10.1f %-10.0f %-12s\n",
		"uncapped", r.BaselineMakespan, r.BaselinePeakW, r.BaselineAvgW, r.BaselineEnergyJ, "1.00x")
	fmt.Fprintf(&b, "%-12s %-14v %-10.1f %-10.1f %-10.0f %-12s\n",
		"capped", r.CappedMakespan, r.CappedPeakW, r.CappedAvgW, r.CappedEnergyJ,
		fmt.Sprintf("%.2fx", r.InflationX))
	witness := "peak ≤ cap"
	if r.CapViolated {
		witness = "CAP VIOLATED"
	}
	fmt.Fprintf(&b, "witness: %s · power stalls %d · governor rescales %d · jobs %d/%d\n",
		witness, r.PowerStalls, r.GovernorRescales, r.JobsCompleted, r.Jobs)
	fmt.Fprintf(&b, "policy EDP (J·s): min-time %.1f · min-energy %.1f · min-edp %.1f\n",
		r.MinTimeEDP, r.MinEnergyEDP, r.MinEDPEDP)
	return b.String()
}
