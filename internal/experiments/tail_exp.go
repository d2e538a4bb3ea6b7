package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"legato/internal/engine"
	"legato/internal/faults"
	"legato/internal/ft"
	"legato/internal/hw"
	"legato/internal/power"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// --- E14: tail latency under silent degradation, hedged vs unhedged -----

// TailResult is the outcome of the E14 study: the same multi-job session
// run twice under an identical degrade-heavy fault plan and fleet power
// cap — once with hedging disabled (the watchdog never arms, so the
// silently slowed device keeps winning placement on its clean cost model)
// and once with hedged execution. The gate the benchmark enforces: hedging
// cuts both p99 task latency and session makespan, the capped peak-draw
// witness holds (hedges are admitted through the watt ledger, never force-
// launched), wasted hedge energy is reported, and the hedged session's
// platform energy stays within a bounded factor of the unhedged one.
type TailResult struct {
	Jobs, Workers int
	// Seed is the fault-plan seed the deterministic search settled on;
	// SeedsTried counts candidate plans whose degrade landed too late to
	// produce straggler work.
	Seed       int64
	SeedsTried int
	// CapW is the fleet power cap both sessions run under.
	CapW float64
	// DegradedDevice is the silently slowed device; Slowdown its hidden
	// execution-time stretch; DegradeAt the sampled event time.
	DegradedDevice string
	Slowdown       float64
	DegradeAt      sim.Time

	// Unhedged vs hedged session, same plan, cap and MinTime policy.
	BaseP99, HedgedP99           sim.Time
	BaseMakespan, HedgedMakespan sim.Time
	P99CutX, MakespanCutX        float64
	BaseEnergyJ, HedgedEnergyJ   float64 // platform energy (idle+dynamic)
	EnergyRatioX                 float64 // hedged over unhedged
	HedgedPeakW                  float64
	// CapViolated is the peak-draw witness for the hedged session: true
	// iff fleet draw ever exceeded the cap. Must be false.
	CapViolated bool

	Stragglers     int
	HedgesLaunched int
	HedgesWon      int
	HedgesDenied   int
	HedgeWastedJ   float64
	JobsCompleted  int
}

// tailFleet is the E14 platform: one fast x86 microserver that every
// 1-core task prefers (25 Gops per core), backed by two ARM servers
// (18 Gops per core). The fault plan silently slows the favoured device;
// because the slowdown is invisible to the cost model, only the straggler
// watchdog can notice and route around it.
func tailFleet() []*hw.Device {
	se := sim.NewEngine()
	return []*hw.Device{
		hw.NewDevice(se, "xeon0", hw.XeonD()),
		hw.NewDevice(se, "arm0", hw.ARMv8Server()),
		hw.NewDevice(se, "arm1", hw.ARMv8Server()),
	}
}

// tailPlan returns the degrade-heavy E14 fault plan: a near-immediate
// silent slowdown of the x86 class (capacity untouched — DegradeTo 1.0 —
// so placement keeps trusting the device) with the given seed.
func tailPlan(seed int64) faults.Plan {
	return faults.Plan{
		DegradeMTBF:     ft.MTBFModel{hw.CPUx86: 0.05},
		DegradeTo:       1.0,
		DegradeSlowdown: 6.0,
		Seed:            seed,
	}
}

// tailSession runs one E14 session: `jobs` four-chain jobs on the tail
// fleet under the plan, cap, and hedge policy, returning the engine stats
// plus the per-task latencies (Record.End − Record.Start, the true task
// latency including any straggling window before a hedge won).
func tailSession(jobs, workers int, plan faults.Plan, hedge taskrt.HedgePolicy, capW float64) (engine.Stats, []sim.Time, error) {
	e, err := engine.New(engine.Config{
		Workers:   workers,
		Policy:    taskrt.MinTime,
		Fleet:     tailFleet(),
		Faults:    &plan,
		PowerCapW: capW,
		Hedge:     hedge,
	})
	if err != nil {
		return engine.Stats{}, nil, err
	}
	ctx := context.Background()
	var js []*engine.Job
	for n := 0; n < jobs; n++ {
		j, err := e.NewJob(fmt.Sprintf("job%d", n))
		if err != nil {
			return engine.Stats{}, nil, err
		}
		if err := multiJobGraphSized(j.Runtime(), j.Name, 4, 6, 1024); err != nil {
			return engine.Stats{}, nil, err
		}
		js = append(js, j)
		if err := e.Submit(ctx, j); err != nil {
			return engine.Stats{}, nil, err
		}
	}
	var lats []sim.Time
	for _, j := range js {
		res, err := j.Wait(ctx)
		if err != nil {
			return engine.Stats{}, nil, fmt.Errorf("job %s: %w", j.Name, err)
		}
		for _, rec := range res.Records {
			if !rec.Shed {
				lats = append(lats, rec.End-rec.Start)
			}
		}
	}
	st := e.Stats()
	if err := e.Shutdown(ctx); err != nil {
		return engine.Stats{}, nil, err
	}
	return st, lats, nil
}

// p99 returns the 99th-percentile of the latencies (nearest-rank).
func p99(lats []sim.Time) sim.Time {
	if len(lats) == 0 {
		return 0
	}
	s := append([]sim.Time(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (99*len(s) + 99) / 100 // ceil(0.99 n)
	if idx > len(s) {
		idx = len(s)
	}
	return s[idx-1]
}

// Tail runs the E14 study. Both sessions share one deterministic fault
// plan whose single degrade event silently slows the favoured device by
// 6× early in the session, and one fleet power cap at 60% of nominal peak
// draw. The unhedged session keeps scheduling onto the slowed device (its
// clean cost model still scores best), so every execution there straggles
// unnoticed; the hedged session's watchdog flags the stretch at 1.5× the
// expected span, launches replicas on the ARM servers through the core and
// watt ledgers, and folds the witnessed slowdown into placement so later
// tasks route around the device entirely. A bounded seed search (seed,
// seed+1, ...) keeps the first plan whose degrade actually lands before
// the work drains; each candidate session is deterministic on the virtual
// clock.
func Tail(jobs, workers int, seed int64) (*TailResult, error) {
	ref := tailFleet()
	capW := 0.6 * float64(power.FleetPeakWatts(ref))

	const maxSeeds = 64
	for s := seed; s < seed+maxSeeds; s++ {
		plan := tailPlan(s)
		events := plan.Schedule(ref)
		if len(events) == 0 {
			continue
		}
		hedged, hedgedLats, err := tailSession(jobs, workers, plan, taskrt.HedgePolicy{Multiplier: 1.5}, capW)
		if err != nil {
			return nil, fmt.Errorf("experiments: E14 hedged session (seed %d): %w", s, err)
		}
		if hedged.StragglersDetected == 0 || hedged.HedgesWon == 0 {
			continue // degrade sampled past the session's useful window
		}
		base, baseLats, err := tailSession(jobs, workers, plan, taskrt.HedgePolicy{}, capW)
		if err != nil {
			return nil, fmt.Errorf("experiments: E14 unhedged session (seed %d): %w", s, err)
		}
		if base.SessionMakespan <= 0 {
			return nil, fmt.Errorf("experiments: E14 unhedged session produced no makespan")
		}
		return &TailResult{
			Jobs: jobs, Workers: workers,
			Seed: s, SeedsTried: int(s-seed) + 1,
			CapW:           capW,
			DegradedDevice: events[0].Device,
			Slowdown:       events[0].Slowdown,
			DegradeAt:      events[0].At,
			BaseP99:        p99(baseLats),
			HedgedP99:      p99(hedgedLats),
			BaseMakespan:   base.SessionMakespan,
			HedgedMakespan: hedged.SessionMakespan,
			P99CutX:        float64(p99(baseLats)) / float64(p99(hedgedLats)),
			MakespanCutX:   float64(base.SessionMakespan) / float64(hedged.SessionMakespan),
			BaseEnergyJ:    base.PlatformEnergyJ,
			HedgedEnergyJ:  hedged.PlatformEnergyJ,
			EnergyRatioX:   hedged.PlatformEnergyJ / base.PlatformEnergyJ,
			HedgedPeakW:    hedged.PeakDrawW,
			CapViolated:    hedged.PeakDrawW > capW,
			Stragglers:     hedged.StragglersDetected,
			HedgesLaunched: hedged.HedgesLaunched,
			HedgesWon:      hedged.HedgesWon,
			HedgesDenied:   hedged.HedgesDenied,
			HedgeWastedJ:   hedged.HedgeWastedJ,
			JobsCompleted:  hedged.JobsCompleted,
		}, nil
	}
	return nil, fmt.Errorf("experiments: E14 found no plan with straggler work in %d seeds from %d", maxSeeds, seed)
}

// TailTable renders the E14 result.
func TailTable(r *TailResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E14: %d jobs, %d workers — %s silently %.0fx slower at %v (seed %d, %d tried), cap %.0f W\n",
		r.Jobs, r.Workers, r.DegradedDevice, r.Slowdown, r.DegradeAt, r.Seed, r.SeedsTried, r.CapW)
	fmt.Fprintf(&b, "%-12s %-14s %-14s %-12s\n", "", "p99 latency", "makespan", "energy-J")
	fmt.Fprintf(&b, "%-12s %-14v %-14v %-12.0f\n", "no hedging", r.BaseP99, r.BaseMakespan, r.BaseEnergyJ)
	fmt.Fprintf(&b, "%-12s %-14v %-14v %-12.0f\n", "hedged", r.HedgedP99, r.HedgedMakespan, r.HedgedEnergyJ)
	fmt.Fprintf(&b, "hedging cuts p99 %.2fx, makespan %.2fx at %.2fx energy\n",
		r.P99CutX, r.MakespanCutX, r.EnergyRatioX)
	witness := "peak ≤ cap"
	if r.CapViolated {
		witness = "CAP VIOLATED"
	}
	fmt.Fprintf(&b, "witness: %s (peak %.1f W) · stragglers %d · hedges %d launched / %d won / %d denied · waste %.1f J · jobs %d/%d\n",
		witness, r.HedgedPeakW, r.Stragglers, r.HedgesLaunched, r.HedgesWon, r.HedgesDenied,
		r.HedgeWastedJ, r.JobsCompleted, r.Jobs)
	return b.String()
}
