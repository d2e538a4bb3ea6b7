// Package engine implements the concurrent multi-job execution engine of
// the LEGaTO stack: a long-lived worker pool that runs many independent
// task graphs ("jobs") in parallel over one shared heterogeneous fleet.
// This is the managed-platform half of the paper's Fig. 2 — the task
// runtime below stays a single-clock scheduler, and this layer multiplexes
// many of them over the hardware:
//
//   - every job owns a private virtual clock (sim.Engine) and a private
//     mirror of the platform's devices, so its schedule and energy
//     accounting are isolated and deterministic;
//   - a Fleet ledger arbitrates the real device capacity between jobs
//     (taskrt.Admission), so the union of all placements never
//     oversubscribes any device;
//   - jobs are context-aware end to end: submission contexts carry
//     cancellation and per-job deadlines into the scheduler loop, and
//     Shutdown drains gracefully.
//
// Fleet-time accounting: the engine maintains one virtual "lane" per
// worker and charges each completed job's makespan to the least-loaded
// lane (greedy list scheduling, independent of which goroutine happened to
// execute the job). The session makespan is the maximum lane clock: with
// one worker this degenerates to serial submission (sum of job makespans);
// with a full-width pool independent jobs overlap and the session makespan
// approaches the slowest job. The overlap is an honest estimate of fleet
// occupancy whenever admission never stalled (Stats.AdmissionStalls = 0,
// i.e. the fleet really could host the concurrent jobs side by side);
// under contention it is a lower bound, and the stall counter says so.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"legato/internal/energy"
	"legato/internal/faults"
	"legato/internal/hw"
	"legato/internal/monitor"
	"legato/internal/obs"
	"legato/internal/power"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// Typed submission errors, matchable with errors.Is.
var (
	// ErrShutdown is returned by Submit after Shutdown began.
	ErrShutdown = errors.New("engine: shut down")
	// ErrQueueFull is returned by Submit when the queue is at capacity.
	ErrQueueFull = errors.New("engine: queue full")
	// ErrAlreadySubmitted is returned by Submit for a non-Building job.
	ErrAlreadySubmitted = errors.New("engine: job already submitted")
)

// Fixed engine parameters.
const (
	// queueDepth bounds the submission queue.
	queueDepth = 4096
	// retryBudget is the per-task failure attempt budget under fault
	// injection; Task.Retry overrides it per task.
	retryBudget = 3
	// retryBackoff is the base re-placement backoff on the job's virtual
	// clock, doubled on every consecutive failure.
	retryBackoff = time.Millisecond
)

// Config parametrises an Engine.
type Config struct {
	// Workers is the number of jobs executed concurrently (default 4).
	Workers int
	// Policy is the placement objective used by every job's scheduler.
	Policy taskrt.Policy
	// Fleet lists the reference devices defining shared capacity. Every
	// job runs on a private mirror of them (hw.Mirror): same IDs and specs,
	// fresh state on the job's clock.
	Fleet []*hw.Device
	// Registry receives per-job and per-device counters (optional).
	Registry *monitor.Registry
	// Bus receives typed runtime events from every job's lifecycle hooks
	// and the fault injector (optional). A nil bus costs nothing; a bus
	// with no listener costs one atomic load per would-be event.
	Bus *obs.Bus
	// Faults, when non-nil and enabled, drives an MTBF-based failure
	// process over the session: the sampled timeline is replayed on every
	// job's private clock, and the injector applies each global fault
	// (fleet capacity loss) exactly once.
	Faults *faults.Plan
	// PowerCapW bounds the modelled fleet draw (static idle power of every
	// healthy device plus all granted dynamic task power) in watts; zero or
	// negative means uncapped. Placements that would breach the cap park on
	// the power ledger exactly like core-admission stalls.
	PowerCapW float64
	// Governor selects how the power ledger reshapes device operating
	// points under cap pressure (default power.RaceToIdle).
	Governor power.Kind
	// Hedge arms tail-tolerant execution on every job: a virtual-clock
	// watchdog flags executions exceeding Hedge.Multiplier × their cost-
	// model expectation and races a speculative replica on a different
	// device, admitted through the same core and watt ledgers.
	Hedge taskrt.HedgePolicy
	// DeadlineMode selects how missed task deadlines are handled (default
	// taskrt.DeadlineStrict: the job fails with ErrDeadlineExceeded).
	DeadlineMode taskrt.DeadlineMode
}

// State is a job's lifecycle phase.
type State int

const (
	// Building: tasks are still being submitted to the job.
	Building State = iota
	// Queued: submitted to the engine, waiting for a worker.
	Queued
	// Running: a worker is executing the job's graph.
	Running
	// Done: completed successfully; the result is available.
	Done
	// Failed: aborted with a non-context error.
	Failed
	// Cancelled: aborted by context cancellation or deadline.
	Cancelled
)

// String names the state.
func (s State) String() string {
	switch s {
	case Building:
		return "building"
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Job is one task graph scheduled by the engine.
type Job struct {
	ID   int
	Name string

	clock   *sim.Engine
	rt      *taskrt.Runtime
	devices []*hw.Device
	eng     *Engine

	mu      sync.Mutex
	state   State
	timeout time.Duration
	ctx     context.Context
	cancel  context.CancelFunc
	result  *taskrt.Result
	err     error
	done    chan struct{}
}

// Runtime exposes the job's private scheduler for task submission and
// hook registration. It must not be touched after Submit.
func (j *Job) Runtime() *taskrt.Runtime { return j.rt }

// Clock exposes the job's private virtual clock.
func (j *Job) Clock() *sim.Engine { return j.clock }

// Devices lists the job's platform mirror.
func (j *Job) Devices() []*hw.Device { return j.devices }

// SetTimeout sets a per-job wall-clock budget applied from the moment the
// job is submitted; zero means no deadline. Must be called before Submit.
func (j *Job) SetTimeout(d time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.timeout = d
}

// State reports the job's lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cancel aborts the job; a no-op before submission or after completion.
func (j *Job) Cancel() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job completes or ctx fires, and returns the job's
// result. A ctx abort leaves the job running; use Cancel to stop it.
// Completion wins over a simultaneously-fired ctx, so a result that exists
// is always returned — the caller never observes a ctx error for a job
// that already reached a terminal state.
func (j *Job) Wait(ctx context.Context) (*taskrt.Result, error) {
	select {
	case <-j.done:
	default:
		select {
		case <-j.done:
		case <-ctx.Done():
			// Re-check: if the job completed while we were racing with the
			// context, prefer the terminal state.
			select {
			case <-j.done:
			default:
				return nil, ctx.Err()
			}
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

func (j *Job) finish(res *taskrt.Result, err error) {
	j.mu.Lock()
	switch {
	case err == nil:
		j.state = Done
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = Cancelled
	default:
		j.state = Failed
	}
	j.result, j.err = res, err
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	close(j.done)
}

// Stats summarises a session.
type Stats struct {
	JobsSubmitted, JobsCompleted, JobsFailed, JobsCancelled int
	// TasksCompleted counts task executions across all completed jobs.
	TasksCompleted int
	// EnergyJ sums dynamic task energy across all completed jobs.
	EnergyJ float64
	// PlatformEnergyJ adds the static (idle) energy of the surviving fleet
	// over the session makespan to EnergyJ — what the electricity meter
	// would read, not just the task increments.
	PlatformEnergyJ float64
	// AvgPowerW is PlatformEnergyJ over the session makespan.
	AvgPowerW float64
	// PowerCapW echoes the configured cap (0 = uncapped).
	PowerCapW float64
	// PeakDrawW is the high-water mark of the modelled fleet draw — the
	// peak-draw witness: never above PowerCapW when a cap is armed.
	PeakDrawW float64
	// PowerStalls counts placements refused by the watt budget.
	PowerStalls uint64
	// GovernorRescales counts DVFS operating-point changes made by the
	// governor under cap pressure.
	GovernorRescales uint64
	// TotalJobTime is the sum of job makespans — the fleet time serial
	// submission would need.
	TotalJobTime sim.Time
	// SessionMakespan is the fleet time the engine actually needed (max
	// worker fleet clock).
	SessionMakespan sim.Time
	// AdmissionStalls counts failed admission attempts (contention; zero
	// means the lane estimate of SessionMakespan is exact).
	AdmissionStalls uint64
	// TasksRetried counts task executions re-queued after a crash or a
	// detected corruption, across all jobs.
	TasksRetried int
	// TasksRestored counts completed tasks re-executed because a device
	// loss invalidated their un-checkpointed outputs.
	TasksRestored int
	// Checkpoints counts committed asynchronous job checkpoints.
	Checkpoints int
	// DevicesLost counts devices crashed by the failure process.
	DevicesLost int
	// StragglersDetected counts executions flagged by the tail watchdog.
	StragglersDetected int
	// HedgesLaunched counts speculative replicas started across all jobs.
	HedgesLaunched int
	// HedgesWon counts replicas that beat their straggling primary.
	HedgesWon int
	// HedgesDenied counts replica launches refused by availability or the
	// core/watt ledgers.
	HedgesDenied int
	// HedgeWastedJ is the energy burned by cancelled losing executions.
	HedgeWastedJ float64
	// DeadlineMisses counts tasks that passed their deadline.
	DeadlineMisses int
	// TasksShed counts tasks skipped by graceful degradation.
	TasksShed int
}

// Speedup is the throughput gain of the session over serial submission.
func (s Stats) Speedup() float64 {
	if s.SessionMakespan <= 0 {
		return 1
	}
	return float64(s.TotalJobTime) / float64(s.SessionMakespan)
}

// Engine is the long-lived multi-job engine.
type Engine struct {
	cfg      Config
	fleet    *Fleet
	power    *power.Ledger
	ref      []*hw.Device
	injector *faults.Injector  // nil without a fault plan
	devScope map[string]string // registry scope "device/<id>" per reference device
	queue    chan *Job
	wg       sync.WaitGroup

	mu     sync.Mutex
	jobs   []*Job
	nextID int
	closed bool
	lanes  []sim.Time // per-slot fleet clocks (see package doc)
	stats  Stats
}

// New starts an engine with its worker pool. The caller must eventually
// call Shutdown to drain it.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Fleet) == 0 {
		return nil, fmt.Errorf("engine: Config.Fleet is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	ref := cfg.Fleet
	ledger := power.NewLedger(energy.Watts(cfg.PowerCapW), ref, cfg.Governor)
	if ledger.Capped() && ledger.Cap() <= ledger.IdleWatts() {
		// The idle floor alone exhausts the budget: every placement would
		// park forever, rescuable only by cancellation.
		return nil, fmt.Errorf("engine: power cap %v W leaves no headroom over the fleet's %v W idle floor",
			ledger.Cap(), ledger.IdleWatts())
	}
	e := &Engine{
		cfg:      cfg,
		fleet:    NewFleet(ref),
		power:    ledger,
		ref:      ref,
		devScope: make(map[string]string, len(ref)),
		queue:    make(chan *Job, queueDepth),
		lanes:    make([]sim.Time, cfg.Workers),
	}
	for _, d := range ref {
		e.devScope[d.ID] = "device/" + d.ID
	}
	e.fleet.AttachPower(e.power)
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		e.injector = faults.NewInjector(*cfg.Faults, e.fleet, ref, cfg.Registry)
	}
	e.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go e.worker(w)
	}
	return e, nil
}

// Fleet exposes the shared admission ledger.
func (e *Engine) Fleet() *Fleet { return e.fleet }

// Power exposes the shared watt ledger (always non-nil; uncapped when no
// PowerCapW was configured).
func (e *Engine) Power() *power.Ledger { return e.power }

// Workers reports the pool width.
func (e *Engine) Workers() int { return e.cfg.Workers }

// NewJob creates an empty job with a private clock and a mirror of the
// fleet, wired to the shared ledgers. Submit tasks through Runtime(), then
// hand the job to Submit.
func (e *Engine) NewJob(name string) (*Job, error) {
	clock := sim.NewEngine()
	devs := hw.Mirror(clock, e.ref)
	rt := taskrt.New(clock, devs, e.cfg.Policy)
	rt.SetAdmission(e.fleet)
	rt.SetPowerAdmission(e.power)
	rt.SetHedging(e.cfg.Hedge)
	rt.SetDeadlineMode(e.cfg.DeadlineMode)

	e.mu.Lock()
	e.nextID++
	j := &Job{
		ID: e.nextID, Name: name,
		clock: clock, rt: rt, devices: devs, eng: e,
		done: make(chan struct{}),
	}
	e.jobs = append(e.jobs, j)
	e.mu.Unlock()

	if reg := e.cfg.Registry; reg != nil {
		e.wireRegistry(j, reg)
	}
	e.wireBus(j)
	e.wireFaults(j)
	return j, nil
}

// jobCells caches one job's hot registry cells. Each cell is resolved by
// its first write (so a metric still enters the registry only once it was
// written), and every later add is lock-free. Queued fires on the
// submitting goroutine and the rest on the goroutine driving the job, which
// the engine queue orders after every submission, so the cache needs no lock.
type jobCells struct {
	reg                                *monitor.Registry
	queued, running, completed, energy *monitor.Cell
	devs                               map[string]*deviceCells
}

// deviceCells are one device's cells as seen by one job, resolved together
// by the job's first completion on the device.
type deviceCells struct{ completed, energy, busy *monitor.Cell }

// add accumulates delta onto the cached cell, resolving it on first use.
func (c *jobCells) add(cell **monitor.Cell, scope, metric string, delta float64) {
	if *cell == nil {
		*cell = c.reg.AddCell(scope, metric, delta)
		return
	}
	(*cell).Add(delta)
}

// wireRegistry registers the hooks feeding the job's counters into the
// session registry: per-task counters through cached cells, rarer recovery
// and tail events through plain Adds.
func (e *Engine) wireRegistry(j *Job, reg *monitor.Registry) {
	scope := "job/" + j.Name
	c := &jobCells{reg: reg, devs: make(map[string]*deviceCells, len(e.ref))}
	j.rt.AddHooks(taskrt.Hooks{
		Queued: func(string) { c.add(&c.queued, scope, "tasks-queued", 1) },
		Started: func(*taskrt.Record) {
			c.add(&c.running, scope, "tasks-running", 1)
		},
		Finished: func(rec *taskrt.Record) {
			if rec.Shed {
				// A shed task never started: no running decrement, no
				// device attribution.
				reg.Add(scope, "tasks-shed", 1)
				reg.Add("tail", "tasks-shed", 1)
				return
			}
			c.add(&c.running, scope, "tasks-running", -1)
			c.add(&c.completed, scope, "tasks-completed", 1)
			c.add(&c.energy, scope, "energy-J", float64(rec.EnergyJ))
			busy := sim.ToSeconds(rec.End - rec.Start)
			if d := c.devs[rec.Device]; d != nil {
				d.completed.Add(1)
				d.energy.Add(float64(rec.EnergyJ))
				d.busy.Add(busy)
				return
			}
			dev := e.deviceScope(rec.Device)
			c.devs[rec.Device] = &deviceCells{
				completed: reg.AddCell(dev, "tasks-completed", 1),
				energy:    reg.AddCell(dev, "energy-J", float64(rec.EnergyJ)),
				busy:      reg.AddCell(dev, "busy-s", busy),
			}
		},
		Retried: func(_ string, _ int, reason string, _ sim.Time) {
			if reason != "restore" {
				// A revoked or out-voted execution stops running; a restored
				// task had already finished, so it held no running slot.
				c.add(&c.running, scope, "tasks-running", -1)
			}
			reg.Add(scope, "task-retries", 1)
			reg.Add("faults", "task-retries", 1)
			reg.Add("faults", "retry-"+reason, 1)
		},
		DeviceLost: func(deviceID string, revoked, restored int, _ sim.Time) {
			reg.Add(scope, "device-lost", 1)
			reg.Add(scope, "tasks-revoked", float64(revoked))
			reg.Add(scope, "tasks-restored", float64(restored))
			reg.Add(e.deviceScope(deviceID), "lost", 1)
			reg.Add("faults", "tasks-revoked", float64(revoked))
			reg.Add("faults", "tasks-restored", float64(restored))
		},
		Checkpointed: func(_ int, bytes int64, _, _ sim.Time) {
			reg.Add(scope, "checkpoints", 1)
			reg.Add(scope, "checkpoint-bytes", float64(bytes))
			reg.Add("faults", "checkpoints", 1)
		},
		Straggler: func(_, deviceID string, _, _ sim.Time) {
			reg.Add(scope, "stragglers-detected", 1)
			reg.Add("tail", "stragglers-detected", 1)
			reg.Add(e.deviceScope(deviceID), "stragglers", 1)
		},
		Hedged: func(_, _, to string, _ sim.Time) {
			reg.Add(scope, "hedges-launched", 1)
			reg.Add("tail", "hedges-launched", 1)
			reg.Add(e.deviceScope(to), "hedges-hosted", 1)
		},
		HedgeResolved: func(_, _ string, hedgeWon bool, wastedJ energy.Joules, _, _ sim.Time) {
			if hedgeWon {
				reg.Add(scope, "hedges-won", 1)
				reg.Add("tail", "hedges-won", 1)
			}
			reg.Add(scope, "hedge-wasted-J", float64(wastedJ))
			reg.Add("tail", "hedge-wasted-J", float64(wastedJ))
		},
		DeadlineMissed: func(_ string, _, _ sim.Time, _ bool) {
			reg.Add(scope, "deadline-misses", 1)
			reg.Add("tail", "deadline-misses", 1)
		},
	})
}

// deviceScope is the registry scope of a device, built once per engine
// for every reference device rather than per finished task.
func (e *Engine) deviceScope(id string) string {
	if s, ok := e.devScope[id]; ok {
		return s
	}
	return "device/" + id
}

// wireBus registers the hooks that publish the job's lifecycle to the
// session event bus, every event stamped with the job's virtual time and
// name. Hooks fire on the goroutine driving the job; the bus serializes
// publication. Every hook returns on an idle bus (no listener) before it
// builds an event, so an unobserved session pays one atomic load per hook.
func (e *Engine) wireBus(j *Job) {
	bus := e.cfg.Bus
	if bus == nil {
		return
	}
	job := j.Name
	clock := j.clock
	j.rt.AddHooks(taskrt.Hooks{
		Queued: func(name string) {
			if bus.Active() {
				bus.Publish(obs.Event{At: clock.Now(), Kind: obs.TaskQueued, Job: job, Task: name})
			}
		},
		Placed: func(name, device string, cores int, at sim.Time) {
			if bus.Active() {
				bus.Publish(obs.Event{At: at, Kind: obs.TaskPlaced, Job: job, Task: name, Device: device, Value: float64(cores)})
			}
		},
		Started: func(rec *taskrt.Record) {
			if bus.Active() {
				bus.Publish(obs.Event{At: rec.Start, Kind: obs.TaskStarted, Job: job, Task: rec.Name, Device: rec.Device, Value: float64(rec.DrawW)})
			}
		},
		Finished: func(rec *taskrt.Record) {
			if !bus.Active() {
				return
			}
			if rec.Shed {
				bus.Publish(obs.Event{At: rec.End, Kind: obs.TaskShed, Job: job, Task: rec.Name, Detail: "deadline"})
				return
			}
			detail := ""
			switch {
			case rec.Hedged && rec.Corrupted:
				detail = "hedged,corrupted"
			case rec.Hedged:
				detail = "hedged"
			case rec.Corrupted:
				detail = "corrupted"
			}
			bus.Publish(obs.Event{At: rec.End, Kind: obs.TaskCompleted, Job: job, Task: rec.Name, Device: rec.Device, Value: float64(rec.EnergyJ), Detail: detail})
		},
		Retried: func(name string, attempt int, reason string, at sim.Time) {
			if bus.Active() {
				bus.Publish(obs.Event{At: at, Kind: obs.TaskRetried, Job: job, Task: name, Value: float64(attempt), Detail: reason})
			}
		},
		Failed: func(name, reason string, at sim.Time) {
			if bus.Active() {
				bus.Publish(obs.Event{At: at, Kind: obs.TaskFailed, Job: job, Task: name, Detail: reason})
			}
		},
		DeviceLost: func(deviceID string, revoked, restored int, at sim.Time) {
			if bus.Active() {
				bus.Publish(obs.Event{At: at, Kind: obs.DeviceLost, Job: job, Device: deviceID, Value: float64(revoked),
					Detail: fmt.Sprintf("revoked=%d restored=%d", revoked, restored)})
			}
		},
		Checkpointed: func(tasks int, bytes int64, start, end sim.Time) {
			if !bus.Active() {
				return
			}
			// Both sides of the interval surface at commit time: begin is
			// stamped with the capture instant, commit with the landing.
			bus.Publish(obs.Event{At: start, Kind: obs.CheckpointBegin, Job: job, Value: float64(bytes)})
			bus.Publish(obs.Event{At: end, Kind: obs.CheckpointCommit, Job: job, Value: float64(tasks)})
		},
		Straggler: func(name, device string, expected, elapsed sim.Time) {
			if !bus.Active() {
				return
			}
			stretch := 0.0
			if expected > 0 {
				stretch = float64(elapsed) / float64(expected)
			}
			bus.Publish(obs.Event{At: clock.Now(), Kind: obs.HedgeArmed, Job: job, Task: name, Device: device, Value: stretch})
		},
		Hedged: func(name, from, to string, at sim.Time) {
			if bus.Active() {
				bus.Publish(obs.Event{At: at, Kind: obs.HedgeLaunched, Job: job, Task: name, Device: to, Detail: "from " + from})
			}
		},
		HedgeResolved: func(name, winner string, hedgeWon bool, wastedJ energy.Joules, start, end sim.Time) {
			if !bus.Active() {
				return
			}
			k := obs.HedgeCancelled
			if hedgeWon {
				k = obs.HedgeWon
			}
			bus.Publish(obs.Event{At: end, Kind: k, Job: job, Task: name, Device: winner, Value: float64(wastedJ)})
		},
		HedgePromoted: func(name, device string, at sim.Time) {
			if bus.Active() {
				bus.Publish(obs.Event{At: at, Kind: obs.HedgePromoted, Job: job, Task: name, Device: device})
			}
		},
		DeadlineMissed: func(name string, deadline, at sim.Time, shed bool) {
			if !bus.Active() {
				return
			}
			detail := "late"
			if shed {
				detail = "shed"
			}
			bus.Publish(obs.Event{At: at, Kind: obs.DeadlineMissed, Job: job, Task: name, Value: sim.ToSeconds(deadline), Detail: detail})
		},
		PowerAdmitted: func(name, device string, watts energy.Watts, at sim.Time) {
			if bus.Active() {
				bus.Publish(obs.Event{At: at, Kind: obs.PowerAdmitted, Job: job, Task: name, Device: device, Value: float64(watts)})
			}
		},
		PowerRefused: func(name, device string, watts energy.Watts, at sim.Time) {
			if bus.Active() {
				bus.Publish(obs.Event{At: at, Kind: obs.PowerRefused, Job: job, Task: name, Device: device, Value: float64(watts)})
			}
		},
		Rescaled: func(device string, from, to int, at sim.Time) {
			if !bus.Active() {
				return
			}
			k := obs.GovernorThrottled
			if to < from {
				k = obs.GovernorRestored
			}
			bus.Publish(obs.Event{At: at, Kind: k, Job: job, Device: device, Value: float64(to)})
		},
	})
}

// wireFaults replays the injector's sampled timeline on the job's private
// clock. Each event fails (or degrades) the job's own platform mirror so
// local placement routes around the device, and calls into the injector,
// which applies the *global* fleet change exactly once across all jobs.
// A job created after a device already crashed starts with that mirror
// device failed — the graceful-degradation path: the session keeps
// admitting jobs that fit the surviving fleet.
func (e *Engine) wireFaults(j *Job) {
	if e.injector == nil {
		return
	}
	j.rt.SetRetryPolicy(retryBudget, retryBackoff)
	sampler := e.injector.Sampler(int64(j.ID))
	j.rt.SetCorruptor(func(rec taskrt.Record) bool {
		return sampler(rec.Class, power.SDCProbability(rec.Undervolt))
	})
	for _, ev := range e.injector.Events() {
		ev := ev
		switch ev.Kind {
		case faults.Crash:
			if e.injector.Lost(ev.Device) {
				for _, d := range j.devices {
					if d.ID == ev.Device {
						d.Fail()
					}
				}
				continue
			}
			rt := j.rt
			j.rt.ScheduleFault(ev.At, func() {
				if e.injector.Crash(ev.Device) {
					// First job across the event time: the global fault is
					// applied now, so it is published exactly once.
					e.publishFault(j, ev)
				}
				rt.FailDevice(ev.Device)
			})
		case faults.Degrade:
			rt := j.rt
			j.rt.ScheduleFault(ev.At, func() {
				// Apply the global capacity shrink exactly once, then the
				// silent latency stretch on this job's own mirror — every
				// job crossing the event time observes the slowdown, and
				// none of their schedulers can see it coming.
				if e.injector.Degrade(ev) {
					e.publishFault(j, ev)
				}
				if ev.Slowdown > 1 {
					rt.DegradeDevice(ev.Device, ev.Slowdown)
				}
			})
		}
	}
}

// publishFault emits the FaultInjected event for a globally-applied
// fault, attributed to the job whose clock first crossed the event time.
// Degrades carry the silent slowdown factor as the value.
func (e *Engine) publishFault(j *Job, ev faults.Event) {
	bus := e.cfg.Bus
	if !bus.Active() {
		return
	}
	val := 0.0
	if ev.Kind == faults.Degrade {
		val = ev.Slowdown
	}
	bus.Publish(obs.Event{At: ev.At, Kind: obs.FaultInjected, Job: j.Name, Device: ev.Device, Value: val, Detail: ev.Kind.String()})
}

// Faults exposes the fault injector (nil without a plan).
func (e *Engine) Faults() *faults.Injector { return e.injector }

// Submit queues a job for execution under ctx; the job additionally
// honours any per-job timeout set with SetTimeout.
func (e *Engine) Submit(ctx context.Context, j *Job) error {
	if j.eng != e {
		return fmt.Errorf("engine: job %q belongs to a different engine", j.Name)
	}
	j.mu.Lock()
	if j.state != Building {
		j.mu.Unlock()
		return fmt.Errorf("engine: job %q in state %s: %w", j.Name, j.state, ErrAlreadySubmitted)
	}
	if j.timeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(ctx, j.timeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(ctx)
	}
	j.state = Queued
	j.mu.Unlock()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		j.finish(nil, ErrShutdown)
		return ErrShutdown
	}
	e.stats.JobsSubmitted++
	select {
	case e.queue <- j:
		e.mu.Unlock()
		return nil
	default:
		e.stats.JobsSubmitted--
		e.mu.Unlock()
		j.finish(nil, ErrQueueFull)
		return fmt.Errorf("engine: queue holds %d jobs: %w", queueDepth, ErrQueueFull)
	}
}

func (e *Engine) worker(w int) {
	defer e.wg.Done()
	_ = w
	for j := range e.queue {
		e.runJob(j)
	}
}

func (e *Engine) runJob(j *Job) {
	j.mu.Lock()
	ctx := j.ctx
	if err := ctx.Err(); err != nil {
		j.mu.Unlock()
		e.account(j, nil, err)
		return
	}
	j.state = Running
	j.mu.Unlock()

	res, err := j.rt.RunContext(ctx)
	e.account(j, res, err)
}

// account charges the job's makespan to the least-loaded fleet lane and
// updates session statistics, then completes the job.
func (e *Engine) account(j *Job, res *taskrt.Result, err error) {
	e.mu.Lock()
	lane := 0
	for i, c := range e.lanes {
		if c < e.lanes[lane] {
			lane = i
		}
	}
	start := e.lanes[lane]
	if res != nil {
		e.lanes[lane] += res.Makespan
		e.stats.TotalJobTime += res.Makespan
		e.stats.TasksCompleted += len(res.Records)
		e.stats.EnergyJ += float64(res.EnergyJ)
		e.stats.TasksRetried += res.Retries
		e.stats.TasksRestored += res.Restores
		e.stats.Checkpoints += res.Checkpoints
		e.stats.StragglersDetected += res.Stragglers
		e.stats.HedgesLaunched += res.HedgesLaunched
		e.stats.HedgesWon += res.HedgesWon
		e.stats.HedgesDenied += res.HedgesDenied
		e.stats.HedgeWastedJ += float64(res.HedgeWastedJ)
		e.stats.DeadlineMisses += res.DeadlineMisses
		e.stats.TasksShed += res.TasksShed
	}
	switch {
	case err == nil:
		e.stats.JobsCompleted++
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		e.stats.JobsCancelled++
	default:
		e.stats.JobsFailed++
	}
	e.mu.Unlock()

	if reg := e.cfg.Registry; reg != nil {
		scope := "job/" + j.Name
		if res != nil {
			reg.Set(scope, "makespan-s", sim.ToSeconds(res.Makespan))
			reg.Set(scope, "energy-total-J", float64(res.EnergyJ))
		}
		reg.Set(scope, "fleet-start-s", sim.ToSeconds(start))
		reg.Set("power", "draw-W", float64(e.power.Draw()))
		reg.Set("power", "peak-draw-W", float64(e.power.PeakDraw()))
		reg.Set("power", "idle-W", float64(e.power.IdleWatts()))
		reg.Set("power", "stalls", float64(e.power.Stalls()))
		reg.Set("power", "governor-rescales", float64(e.power.Rescales()))
		if e.power.Capped() {
			reg.Set("power", "cap-W", float64(e.power.Cap()))
		}
		for _, d := range e.ref {
			reg.Set(e.devScope[d.ID], "draw-W", float64(e.power.DrawOf(d.ID)))
		}
	}
	j.finish(res, err)
}

// Stats snapshots the session counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	for _, c := range e.lanes {
		if c > s.SessionMakespan {
			s.SessionMakespan = c
		}
	}
	s.AdmissionStalls = e.fleet.Stalls()
	if e.injector != nil {
		s.DevicesLost = e.injector.Crashes()
	}
	if e.power.Capped() {
		s.PowerCapW = float64(e.power.Cap())
	}
	s.PeakDrawW = float64(e.power.PeakDraw())
	s.PowerStalls = e.power.Stalls()
	s.GovernorRescales = e.power.Rescales()
	sec := sim.ToSeconds(s.SessionMakespan)
	// The meter reads idle floor + committed task energy + energy burned by
	// cancelled hedge losers: speculation is not free, and the E14 gate
	// bounds exactly this term.
	s.PlatformEnergyJ = float64(e.power.IdleWatts())*sec + s.EnergyJ + s.HedgeWastedJ
	if sec > 0 {
		s.AvgPowerW = s.PlatformEnergyJ / sec
	}
	return s
}

// Jobs snapshots all jobs ever created on this engine.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Job(nil), e.jobs...)
}

// Shutdown stops accepting jobs and drains the pool: already-queued jobs
// still run. If ctx fires first, every outstanding job is cancelled and
// Shutdown returns the context error once the workers exit.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		for _, j := range e.Jobs() {
			j.Cancel()
		}
		<-drained
		return ctx.Err()
	}
}
