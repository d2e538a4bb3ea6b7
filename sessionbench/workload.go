package main

import (
	"fmt"
	"math/rand"

	"legato"
	"legato/internal/faults"
	"legato/internal/ft"
	"legato/internal/hw"
	"legato/internal/power"
	"legato/internal/sim"
)

// Region is one declared data region of a generated job graph.
type Region struct {
	Name string
	Size int64
}

// TaskSpec is one generated task. In and Out index Graph.Regions.
type TaskSpec struct {
	Name      string
	Gops      float64
	Cores     int
	In, Out   []int
	Replicate bool
	Retry     int
}

// Graph is one generated job: the only input the program under test
// receives. The same (workload, seed, job index) always yields the same
// graph.
type Graph struct {
	Name    string
	Regions []Region
	Tasks   []TaskSpec
}

// Nodes is the number of runtime tasks the graph expands to: a replicated
// task becomes two replicas plus a vote.
func (g Graph) Nodes() int {
	n := 0
	for _, t := range g.Tasks {
		n++
		if t.Replicate {
			n += 2
		}
	}
	return n
}

// Workload is one named session configuration of the benchmark.
type Workload struct {
	Name string
	// Workers is the engine's concurrency width; InFlight how many jobs the
	// closed-loop client keeps submitted at once.
	Workers, InFlight int
	// JobsPerRound is the fixed number of jobs each measured session runs,
	// so modelled results do not depend on host speed.
	JobsPerRound int
	Policy       legato.Policy
	// CapFrac arms a fleet power cap at this share of
	// power.FleetPeakWatts (0 = uncapped).
	CapFrac  float64
	Governor legato.Governor
	Hedge    legato.HedgePolicy
	// Faults arms the seeded failure plan.
	Faults bool
	// Observed arms the session event log and exports the session at the
	// end of the timed phase.
	Observed bool
	// CheckpointEvery enables async L1 checkpoints (0 = off).
	CheckpointEvery int

	graph func(r *rand.Rand, name string) Graph
}

// jitter scales a task's base cost by U[0.5, 1.5).
func jitter(r *rand.Rand, gops float64) float64 { return gops * (0.5 + r.Float64()) }

// chains builds independent chains of tasks: chain c has depth tasks of
// cores[c] width and base cost gops[c]; every task reads the previous
// region of its chain and writes the next. replicateLast marks the last
// task of each chain as replicated.
func chains(r *rand.Rand, name string, cores []int, gops []float64, depth int, bytes int64, replicateLast bool, retry int) Graph {
	g := Graph{Name: name}
	for c := range cores {
		prev := len(g.Regions)
		g.Regions = append(g.Regions, Region{Name: fmt.Sprintf("%s/c%d/d0", name, c), Size: bytes})
		for i := 0; i < depth; i++ {
			next := len(g.Regions)
			g.Regions = append(g.Regions, Region{Name: fmt.Sprintf("%s/c%d/d%d", name, c, i+1), Size: bytes})
			g.Tasks = append(g.Tasks, TaskSpec{
				Name:      fmt.Sprintf("%s/c%d/t%d", name, c, i),
				Gops:      jitter(r, gops[c]),
				Cores:     cores[c],
				In:        []int{prev},
				Out:       []int{next},
				Replicate: replicateLast && i == depth-1,
				Retry:     retry,
			})
			prev = next
		}
	}
	return g
}

func repeat[T any](v T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// workloads are the benchmark's named sessions. Each comment records why
// the workload was chosen and which layers it bypasses.
var workloads = []Workload{
	// dag-wide: the widest ready queue (32 independent chains of 1-core
	// tasks) puts the work in taskrt dispatch and scoring and in the
	// per-device ledger queries (Fleet.Capacity, Ledger.OperatingPoint) made
	// for every ready task on every dispatch round. One worker, no cap, no
	// faults and no bus listener: it bypasses refusals, the governor,
	// recovery, the armed event bus and cross-job contention.
	{
		Name: "dag-wide", Workers: 1, InFlight: 2, JobsPerRound: 64,
		Policy: legato.MinEnergy,
		graph: func(r *rand.Rand, name string) Graph {
			return chains(r, name, repeat(1, 32), repeat(25.0, 32), 8, 1<<10, false, 0)
		},
	},
	// cap-contended: two jobs in flight on two workers under a cap at 60% of
	// fleet peak with the PackAndThrottle governor, on the E13 mixed-width
	// graph (one 2048-core GPU chain, three 16-core chains, one 4-core
	// chain). One job's draw already exceeds the cap, so the core and watt
	// ledgers refuse, park and rescale under cross-job contention. The ready
	// queue stays at most 5 wide, which bypasses the dispatch scan; with 20
	// tasks per job, per-job set-up (NewJob builds the platform mirror and
	// the enclave) is a large share of the run.
	{
		Name: "cap-contended", Workers: 2, InFlight: 2, JobsPerRound: 192,
		Policy: legato.MinTime, CapFrac: 0.6, Governor: legato.PackAndThrottle,
		graph: func(r *rand.Rand, name string) Graph {
			return chains(r, name, []int{2048, 16, 16, 16, 4}, []float64{4500, 40, 40, 40, 40}, 4, 1<<10, false, 0)
		},
	},
	// faults-hedged: E12-style chains (4 × 6, 1 MiB regions) under a seeded
	// failure plan that crashes the busy FPGAs, silently degrades the x86
	// class and corrupts outputs (see FaultPlan), with async L1 checkpoints every 4
	// completions, hedging at 1.5× and the event log armed; the session is
	// exported at the end of the timed phase. The last task of each chain
	// is replicated so the DMR vote detects corruptions. It uses the same
	// engine and taskrt layers as dag-wide but adds the write paths:
	// recovery and tail handling, the armed obs bus, trace spans and the
	// exporters. One job is in flight: NewJob reads the fleet's global
	// crash state, so a job built while its predecessor still runs would
	// see a wall-clock-dependent fleet and the modelled results would not
	// repeat.
	{
		Name: "faults-hedged", Workers: 1, InFlight: 1, JobsPerRound: 64,
		Policy: legato.MinTime, Hedge: legato.HedgePolicy{Multiplier: 1.5},
		Faults: true, Observed: true, CheckpointEvery: 4,
		graph: func(r *rand.Rand, name string) Graph {
			return chains(r, name, repeat(1, 4), repeat(25.0, 4), 6, 1<<20, true, 8)
		},
	},
}

func findWorkload(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// jobRand is the task-cost jitter stream of one job: a function of the
// benchmark seed and the job's index in its round only.
func jobRand(seed int64, job int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(job)*7919 + 17))
}

// Graphs generates the jobs of one round. Every round of a run replays the
// same graphs, so modelled results repeat round to round.
func (w Workload) Graphs(seed int64) []Graph {
	gs := make([]Graph, w.JobsPerRound)
	for k := range gs {
		gs[k] = w.graph(jobRand(seed, k), fmt.Sprintf("job%d", k))
	}
	return gs
}

// WarmupGraph is the job the set-up phase runs once per set-up to fill
// caches; its index lies outside every round.
func (w Workload) WarmupGraph(seed int64) Graph {
	return w.graph(jobRand(seed, -1), "warmup")
}

// FaultPlan is the seeded failure plan of a workload (zero without Faults).
// MinTime places 1-core tasks on the FPGAs first, then on the x86 servers.
// Both FPGAs crash with a mean far below one job's modelled length, so for
// any seed the crashes revoke running tasks inside the first job of a
// session and later jobs start on the surviving fleet. Every job's x86
// servers then degrade early (capacity kept, 6× silent slowdown), so the
// watchdog flags stragglers that hedges on other classes beat. A 4% SDC
// rate on the x86 class gives the replica vote corruptions to detect.
func (w Workload) FaultPlan(seed int64) faults.Plan {
	if !w.Faults {
		return faults.Plan{}
	}
	return faults.Plan{
		MTBF:            ft.MTBFModel{hw.FPGA: 0.05},
		MaxCrashes:      2,
		DegradeMTBF:     ft.MTBFModel{hw.CPUx86: 0.1},
		DegradeTo:       1.0,
		DegradeSlowdown: 6.0,
		SDC:             ft.SDCModel{hw.CPUx86: 0.04},
		Seed:            seed,
	}
}

// referenceFleet is the cloud platform every workload runs on, built on a
// throwaway clock.
func referenceFleet() ([]*hw.Device, error) {
	box, err := hw.StandardCloudBox(sim.NewEngine(), "recs0")
	if err != nil {
		return nil, err
	}
	var devs []*hw.Device
	for _, ms := range box.Microservers() {
		devs = append(devs, ms.Device)
	}
	return devs, nil
}

// CapWatts is the workload's fleet power cap in watts (0 = uncapped).
func (w Workload) CapWatts() (float64, error) {
	if w.CapFrac <= 0 {
		return 0, nil
	}
	devs, err := referenceFleet()
	if err != nil {
		return 0, err
	}
	return w.CapFrac * float64(power.FleetPeakWatts(devs)), nil
}

// Options are the legato options of one session of the workload.
func (w Workload) Options(seed int64, capW float64) []legato.Option {
	opts := []legato.Option{
		legato.WithPlatform(legato.CloudPlatform),
		legato.WithPolicy(w.Policy),
		legato.WithWorkers(w.Workers),
	}
	if capW > 0 {
		opts = append(opts, legato.WithPowerCap(capW), legato.WithGovernor(w.Governor))
	}
	if w.Hedge.Enabled() {
		opts = append(opts, legato.WithHedging(w.Hedge))
	}
	if w.Faults {
		opts = append(opts, legato.WithFaults(w.FaultPlan(seed)))
	}
	if w.Observed {
		opts = append(opts, legato.WithEventLog())
	}
	return opts
}
