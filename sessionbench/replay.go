package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"legato"
	"legato/internal/energy"
	"legato/internal/engine"
	"legato/internal/faults"
	"legato/internal/fti"
	"legato/internal/hw"
	"legato/internal/power"
	"legato/internal/secure"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// The replay rebuilds each job the way engine.NewJob and legato.Job.Submit
// do, but drives taskrt directly so the benchmark can put timing wrappers
// between the runtime and the real core and watt ledgers.

// devRootKey and enclaveCode mirror the System defaults, so the replayed
// enclave costs what legato.NewJob's does.
const (
	devRootKey  = "legato-development-root-key-0000"
	enclaveCode = "legato-system-enclave"
)

// CallStat aggregates one hot call: count, refusals and total host ns.
type CallStat struct {
	calls, refused, ns atomic.Int64
}

func (c *CallStat) add(t0 time.Time, refused bool) {
	c.ns.Add(int64(time.Since(t0)))
	c.calls.Add(1)
	if refused {
		c.refused.Add(1)
	}
}

// Agg is a call aggregate as written to the per-layer file. NetNsPerCall
// subtracts the calibrated cost of an empty timed call.
type Agg struct {
	Calls        int64   `json:"calls"`
	Refused      int64   `json:"refused,omitempty"`
	TotalNs      int64   `json:"total_ns"`
	NetNsPerCall float64 `json:"net_ns_per_call"`
}

func (c *CallStat) agg(calib float64) Agg {
	a := Agg{Calls: c.calls.Load(), Refused: c.refused.Load(), TotalNs: c.ns.Load()}
	if a.Calls > 0 {
		a.NetNsPerCall = float64(a.TotalNs)/float64(a.Calls) - calib
	}
	return a
}

// timedFleet forwards taskrt.Admission to a real engine.Fleet and times
// every call.
type timedFleet struct {
	f                                    *engine.Fleet
	capacity, tryAcquire, release, chang CallStat
}

func (t *timedFleet) TryAcquire(id string, cores int) bool {
	t0 := time.Now()
	ok := t.f.TryAcquire(id, cores)
	t.tryAcquire.add(t0, !ok)
	return ok
}

func (t *timedFleet) Release(id string, cores int) {
	t0 := time.Now()
	t.f.Release(id, cores)
	t.release.add(t0, false)
}

func (t *timedFleet) Changed() <-chan struct{} {
	t0 := time.Now()
	ch := t.f.Changed()
	t.chang.add(t0, false)
	return ch
}

func (t *timedFleet) Capacity(id string) int {
	t0 := time.Now()
	n := t.f.Capacity(id)
	t.capacity.add(t0, false)
	return n
}

// timedPower forwards taskrt.PowerAdmission to a real power.Ledger and
// times every call.
type timedPower struct {
	l                                       *power.Ledger
	operatingPoint, tryDraw, releaseD, chng CallStat
}

func (t *timedPower) TryDraw(id string, w energy.Watts) bool {
	t0 := time.Now()
	ok := t.l.TryDraw(id, w)
	t.tryDraw.add(t0, !ok)
	return ok
}

func (t *timedPower) ReleaseDraw(id string, w energy.Watts) {
	t0 := time.Now()
	t.l.ReleaseDraw(id, w)
	t.releaseD.add(t0, false)
}

func (t *timedPower) Changed() <-chan struct{} {
	t0 := time.Now()
	ch := t.l.Changed()
	t.chng.add(t0, false)
	return ch
}

func (t *timedPower) OperatingPoint(id string) int {
	t0 := time.Now()
	p := t.l.OperatingPoint(id)
	t.operatingPoint.add(t0, false)
	return p
}

// ReplayJob is one replayed job.
type ReplayJob struct {
	Makespan sim.Time
	EnergyJ  float64
	Records  int
	Steps    uint64
	RunNs    int64 // host ns inside RunContext
	BoxNs    int64 // hw.StandardCloudBox for the job mirror
	EnclNs   int64 // secure.New for the job enclave
}

// Replay is one replayed round.
type Replay struct {
	Jobs       []ReplayJob
	Placements int64
	ScheduleNs int64       // faults.NewInjector (samples the plan); 0 without faults
	TFleet     *timedFleet // nil when replayed unwrapped
	TPower     *timedPower
}

// Tasks is the replay's completed task count.
func (r *Replay) Tasks() int {
	n := 0
	for _, j := range r.Jobs {
		n += j.Records
	}
	return n
}

// replay runs the round's graphs through taskrt with a real engine.Fleet
// and power.Ledger (wrapped by timing forwarders when timed), wiring the
// fault plan the way the engine does. Jobs start in graph order on
// Workers goroutines; job IDs follow that order as in the engine.
func (s *session) replay(ctx context.Context, graphs []Graph, timed bool) (*Replay, error) {
	ref, err := referenceFleet()
	if err != nil {
		return nil, err
	}
	out := &Replay{Jobs: make([]ReplayJob, len(graphs))}
	fleet := engine.NewFleet(ref)
	ledger := power.NewLedger(energy.Watts(s.capW), ref, s.w.Governor)
	fleet.AttachPower(ledger)
	var adm taskrt.Admission = fleet
	var pow taskrt.PowerAdmission = ledger
	if timed {
		out.TFleet = &timedFleet{f: fleet}
		out.TPower = &timedPower{l: ledger}
		adm, pow = out.TFleet, out.TPower
	}
	var inj *faults.Injector
	if s.w.Faults {
		t0 := time.Now()
		inj = faults.NewInjector(s.w.FaultPlan(s.seed), fleet, ref, nil)
		out.ScheduleNs = int64(time.Since(t0))
	}

	var placed atomic.Int64
	var mu sync.Mutex
	var firstErr error
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < s.w.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				if err := s.replayJob(ctx, k, graphs[k], adm, pow, inj, &placed, &out.Jobs[k]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("replay of %s: %w", graphs[k].Name, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for k := range graphs {
		next <- k
	}
	close(next)
	wg.Wait()
	out.Placements = placed.Load()
	return out, firstErr
}

func (s *session) replayJob(ctx context.Context, k int, g Graph, adm taskrt.Admission, pow taskrt.PowerAdmission,
	inj *faults.Injector, placed *atomic.Int64, out *ReplayJob) error {
	clock := sim.NewEngine()
	t0 := time.Now()
	box, err := hw.StandardCloudBox(clock, "recs0")
	out.BoxNs = int64(time.Since(t0))
	if err != nil {
		return err
	}
	var devs []*hw.Device
	for _, ms := range box.Microservers() {
		devs = append(devs, ms.Device)
	}
	t0 = time.Now()
	_, err = secure.New(secure.SGX, []byte(enclaveCode), []byte(devRootKey))
	out.EnclNs = int64(time.Since(t0))
	if err != nil {
		return err
	}

	rt := taskrt.New(clock, devs, s.w.Policy)
	rt.SetAdmission(adm)
	rt.SetPowerAdmission(pow)
	rt.SetHedging(s.w.Hedge)
	rt.SetDeadlineMode(legato.DeadlineStrict)
	rt.AddHooks(taskrt.Hooks{Placed: func(string, string, int, sim.Time) { placed.Add(1) }})
	if inj != nil {
		wireFaults(rt, devs, inj, k+1)
	}
	if s.w.CheckpointEvery > 0 {
		rt.SetCheckpoint(s.w.CheckpointEvery,
			func(bytes int64) sim.Time { return fti.LevelCost(fti.L1, bytes) },
			func(bytes int64) sim.Time { return fti.RestoreCost(fti.L1, bytes) })
	}
	if err := submitReplay(rt, devs, g); err != nil {
		return err
	}
	t0 = time.Now()
	res, err := rt.RunContext(ctx)
	out.RunNs = int64(time.Since(t0))
	if err != nil {
		return err
	}
	out.Makespan = res.Makespan
	out.EnergyJ = float64(res.EnergyJ)
	out.Records = len(res.Records)
	out.Steps = clock.Steps()
	return nil
}

// wireFaults replays the injector's timeline on one job's clock exactly as
// the engine wires it: engine default retry policy, a per-job SDC sampler
// keyed by the job ID, crashes and degrades scheduled as runtime faults.
func wireFaults(rt *taskrt.Runtime, devs []*hw.Device, inj *faults.Injector, jobID int) {
	rt.SetRetryPolicy(3, time.Millisecond)
	sampler := inj.Sampler(int64(jobID))
	rt.SetCorruptor(func(rec taskrt.Record) bool {
		return sampler(rec.Class, power.SDCProbability(rec.Undervolt))
	})
	for _, ev := range inj.Events() {
		ev := ev
		switch ev.Kind {
		case faults.Crash:
			if inj.Lost(ev.Device) {
				for _, d := range devs {
					if d.ID == ev.Device {
						d.Fail()
					}
				}
				continue
			}
			rt.ScheduleFault(ev.At, func() {
				inj.Crash(ev.Device)
				rt.FailDevice(ev.Device)
			})
		case faults.Degrade:
			rt.ScheduleFault(ev.At, func() {
				inj.Degrade(ev)
				if ev.Slowdown > 1 {
					rt.DegradeDevice(ev.Device, ev.Slowdown)
				}
			})
		}
	}
}

// submitReplay submits the graph the way legato.Job.Submit expands it: a
// replicated task becomes two critical replicas on the first and last
// distinct device classes that fit it, writing shadow regions, plus a
// critical vote task publishing the real outputs.
func submitReplay(rt *taskrt.Runtime, devs []*hw.Device, g Graph) error {
	regions := make([]*taskrt.Data, len(g.Regions))
	for i, reg := range g.Regions {
		regions[i] = rt.Data(reg.Name, reg.Size)
	}
	pick := func(idx []int) []*taskrt.Data {
		out := make([]*taskrt.Data, 0, len(idx))
		for _, x := range idx {
			out = append(out, regions[x])
		}
		return out
	}
	for _, t := range g.Tasks {
		cores := t.Cores
		if cores <= 0 {
			cores = 1
		}
		ins, outs := pick(t.In), pick(t.Out)
		if !t.Replicate {
			if err := rt.Submit(taskrt.Task{Name: t.Name, Gops: t.Gops, Cores: cores, In: ins, Out: outs, Retry: t.Retry}); err != nil {
				return err
			}
			continue
		}
		var classes []hw.Class
		seen := map[hw.Class]bool{}
		for _, d := range devs {
			if c := d.Spec.Class; !seen[c] && d.Spec.Cores >= cores {
				seen[c] = true
				classes = append(classes, c)
			}
		}
		if len(classes) == 0 {
			return fmt.Errorf("no device can host replicated task %q", t.Name)
		}
		shadowA := rt.Data(t.Name+"/replicaA", 64)
		shadowB := rt.Data(t.Name+"/replicaB", 64)
		for _, rep := range []struct {
			suffix string
			class  hw.Class
			out    *taskrt.Data
		}{{"#a", classes[0], shadowA}, {"#b", classes[len(classes)-1], shadowB}} {
			if err := rt.Submit(taskrt.Task{
				Name: t.Name + rep.suffix, Gops: t.Gops, Cores: cores, Targets: []hw.Class{rep.class},
				In: append([]*taskrt.Data{}, ins...), Out: []*taskrt.Data{rep.out},
				Critical: true, Retry: t.Retry,
			}); err != nil {
				return err
			}
		}
		if err := rt.Submit(taskrt.Task{
			Name: t.Name + "#vote", Gops: 0.01, Cores: 1,
			In: []*taskrt.Data{shadowA, shadowB}, Out: outs,
			Critical: true, Retry: t.Retry,
		}); err != nil {
			return err
		}
	}
	return nil
}

// matchReplay compares a replay with the public round job by job: at one
// worker the per-job makespan and task energy must agree exactly.
func matchReplay(rep *Replay, round *Round) error {
	for k, j := range round.Jobs {
		if j.Report == nil {
			continue
		}
		got := rep.Jobs[k]
		if got.Makespan != j.Report.Makespan || got.EnergyJ != j.Report.TaskEnergyJ {
			return fmt.Errorf("job%d: replay makespan %v energy %v J, public run %v / %v J",
				k, got.Makespan, got.EnergyJ, j.Report.Makespan, j.Report.TaskEnergyJ)
		}
	}
	return nil
}

// timerCost calibrates the host cost of an empty timed call, as made by
// the wrappers, in ns (median of several batches).
func timerCost() float64 {
	var c CallStat
	var batches []float64
	for b := 0; b < 9; b++ {
		c.ns.Store(0)
		c.calls.Store(0)
		for i := 0; i < 20000; i++ {
			t0 := time.Now()
			c.add(t0, false)
		}
		batches = append(batches, float64(c.ns.Load())/float64(c.calls.Load()))
	}
	return median(batches)
}
