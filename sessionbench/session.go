package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"legato"
	"legato/internal/fti"
	"legato/internal/sim"
)

// Span is one benchmark-side span around a call into the legato API.
// Start and End are host nanoseconds since the run began; Parent is 0 for
// a root span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced rounds pay one nil check per call.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// durations returns the lengths in nanoseconds of every closed span with
// the given name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// submitGraph declares the graph's regions on the job and submits its
// tasks through the fluent builder.
func submitGraph(job *legato.Job, g Graph) error {
	hs := make([]legato.DataHandle, len(g.Regions))
	for i, reg := range g.Regions {
		hs[i] = job.Data(reg.Name, reg.Size)
	}
	pick := func(idx []int) []legato.DataHandle {
		out := make([]legato.DataHandle, len(idx))
		for i, x := range idx {
			out[i] = hs[x]
		}
		return out
	}
	for _, t := range g.Tasks {
		b := job.Task(t.Name).Gops(t.Gops).Cores(t.Cores).In(pick(t.In)...).Out(pick(t.Out)...)
		if t.Replicate {
			b = b.Replicated()
		}
		if t.Retry > 0 {
			b = b.Retry(t.Retry)
		}
		if err := b.Submit(); err != nil {
			return err
		}
	}
	return nil
}

// JobOutcome is one job of a round as the client saw it.
type JobOutcome struct {
	Report  *legato.Report
	Err     error
	Latency time.Duration // NewJob to Wait returning
}

// Round is one measured session: a fresh System running the round's jobs
// in a closed loop.
type Round struct {
	Wall        time.Duration // timed phase: graph building, Start, Wait (and export)
	Jobs        []JobOutcome
	Tasks       int // Stats().TasksCompleted
	Stats       legato.SessionStats
	Mallocs     uint64
	AllocBytes  uint64
	LiveHeap    uint64 // HeapAlloc after a forced GC, before Close
	ExportBytes int
	// Check is the first failed session-level output check (nil if all
	// held). Job-level failures are in Jobs.
	Check error
	// Session artefacts, kept only when the round was asked to keep them.
	Events []legato.Event
	System *legato.System
}

// Failed counts jobs that failed, were cancelled or broke an output check.
func (r *Round) Failed() int {
	n := 0
	for _, j := range r.Jobs {
		if j.Err != nil {
			n++
		}
	}
	return n
}

// SimTaskP99 is the p99 of End−Start in modelled seconds over every
// non-shed task record of the round.
func (r *Round) SimTaskP99() float64 {
	var xs []float64
	for _, j := range r.Jobs {
		if j.Report == nil {
			continue
		}
		for _, rec := range j.Report.Records {
			if !rec.Shed {
				xs = append(xs, sim.ToSeconds(rec.End-rec.Start))
			}
		}
	}
	return percentile(xs, 0.99)
}

// percentile is the nearest-rank percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*p+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// session runs one workload's rounds against the public API.
type session struct {
	w    Workload
	seed int64
	capW float64
	opts []legato.Option
}

func newSession(w Workload, seed int64) (*session, error) {
	capW, err := w.CapWatts()
	if err != nil {
		return nil, fmt.Errorf("computing power cap: %w", err)
	}
	return &session{w: w, seed: seed, capW: capW, opts: w.Options(seed, capW)}, nil
}

// Setup builds a System and runs the warm-up job on it, then closes it;
// it returns the host time of the whole set-up.
func (s *session) Setup(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	sys, err := legato.NewSystem(s.opts...)
	if err != nil {
		return 0, fmt.Errorf("NewSystem: %w", err)
	}
	job, err := sys.NewJob("warmup")
	if err == nil {
		err = s.prepare(job, s.w.WarmupGraph(s.seed))
	}
	if err == nil {
		_, err = job.Run(ctx)
	}
	if cerr := sys.Close(ctx); err == nil && cerr != nil {
		err = fmt.Errorf("Close: %w", cerr)
	}
	return time.Since(t0), err
}

// prepare applies the workload's per-job settings and submits the graph.
func (s *session) prepare(job *legato.Job, g Graph) error {
	if s.w.CheckpointEvery > 0 {
		if err := job.Checkpoint(s.w.CheckpointEvery, fti.L1); err != nil {
			return err
		}
	}
	return submitGraph(job, g)
}

type pending struct {
	k    int
	job  *legato.Job
	t0   time.Time
	span int
}

// Run executes one round: a fresh System, then the graphs in a closed
// loop with at most InFlight jobs submitted, in graph order, then the
// output checks. rec (optional) records spans around every API call.
// extra options are appended to the workload's; keep retains the System
// (open) and its artefacts for output replays — the caller closes it.
func (s *session) Run(ctx context.Context, graphs []Graph, rec *recorder, keep bool, extra ...legato.Option) (*Round, error) {
	root := rec.begin("round", 0)
	defer rec.end(root)

	sp := rec.begin("NewSystem", root)
	sys, err := legato.NewSystem(append(append([]legato.Option(nil), s.opts...), extra...)...)
	r := &Round{Jobs: make([]JobOutcome, len(graphs))}
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("NewSystem: %w", err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var watchers sync.WaitGroup
	start := time.Now()

	finish := func(p pending) {
		out := &r.Jobs[p.k]
		if rec != nil {
			// Wait first for completion, so the Wait span measures report
			// assembly alone.
			<-p.job.Done()
		}
		ws := rec.begin("Wait", p.span)
		out.Report, out.Err = p.job.Wait(ctx)
		rec.end(ws)
		rec.end(p.span)
		out.Latency = time.Since(p.t0)
		if out.Err == nil {
			out.Err = checkJob(out.Report, graphs[p.k])
		}
	}
	var queue []pending
	for k, g := range graphs {
		if len(queue) == s.w.InFlight {
			finish(queue[0])
			queue = queue[1:]
		}
		p := pending{k: k, t0: time.Now()}
		p.span = rec.begin("job", root)
		sp := rec.begin("NewJob", p.span)
		p.job, err = sys.NewJob(g.Name)
		rec.end(sp)
		if err == nil {
			sp = rec.begin("Submit", p.span)
			err = s.prepare(p.job, g)
			rec.end(sp)
		}
		if err == nil {
			sp = rec.begin("Start→Done", p.span)
			err = p.job.Start(ctx)
			if err == nil && rec != nil {
				watchers.Add(1)
				go func(job *legato.Job, id int) {
					defer watchers.Done()
					<-job.Done()
					rec.end(id)
				}(p.job, sp)
			}
		}
		if err != nil {
			r.Jobs[k] = JobOutcome{Err: fmt.Errorf("job %s: %w", g.Name, err), Latency: time.Since(p.t0)}
			rec.end(p.span)
			continue
		}
		queue = append(queue, p)
	}
	for _, p := range queue {
		finish(p)
	}
	if s.w.Observed || keep {
		sp := rec.begin("ExportSession", root)
		if err := sys.ExportSession(countWriter{&r.ExportBytes}); err != nil && r.Check == nil {
			r.Check = fmt.Errorf("ExportSession: %w", err)
		}
		rec.end(sp)
	}
	r.Wall = time.Since(start)
	runtime.ReadMemStats(&after)
	watchers.Wait()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	r.Mallocs = after.Mallocs - before.Mallocs
	r.AllocBytes = after.TotalAlloc - before.TotalAlloc
	r.LiveHeap = live.HeapAlloc

	r.Stats = sys.Stats()
	r.Tasks = r.Stats.TasksCompleted
	if err := s.checkSession(sys, r, graphs); err != nil && r.Check == nil {
		r.Check = err
	}
	if keep {
		r.System = sys
		r.Events = sys.EventLog()
		return r, nil
	}
	sp = rec.begin("Close", root)
	if err := sys.Close(ctx); err != nil && r.Check == nil {
		r.Check = fmt.Errorf("Close: %w", err)
	}
	rec.end(sp)
	return r, nil
}

// countWriter discards what it is given and counts the bytes.
type countWriter struct{ n *int }

func (c countWriter) Write(p []byte) (int, error) {
	*c.n += len(p)
	return len(p), nil
}

// errCheck marks a job that completed but broke an output check.
var errCheck = errors.New("output check failed")

// checkJob verifies one completed job: every runtime task ran exactly
// once in the records.
func checkJob(rep *legato.Report, g Graph) error {
	if rep == nil {
		return fmt.Errorf("job %s: no report: %w", g.Name, errCheck)
	}
	if len(rep.Records) != g.Nodes() {
		return fmt.Errorf("job %s: %d task records, submitted %d: %w", g.Name, len(rep.Records), g.Nodes(), errCheck)
	}
	for _, rec := range rep.Records {
		if rec.Shed || rec.Attempts < 1 || rec.End < rec.Start {
			return fmt.Errorf("job %s: task %s did not complete cleanly: %w", g.Name, rec.Name, errCheck)
		}
	}
	return nil
}

// checkSession verifies the session-level outputs of a round: completed
// task count, the core-ledger oversubscription witness, the power-cap
// witness when capped, and nonzero recovery and tail work under faults.
func (s *session) checkSession(sys *legato.System, r *Round, graphs []Graph) error {
	want, ok := 0, 0
	for k, j := range r.Jobs {
		if j.Err == nil {
			want += graphs[k].Nodes()
			ok++
		}
	}
	st := r.Stats
	if st.JobsCompleted != ok || st.TasksCompleted != want {
		return fmt.Errorf("session completed %d jobs / %d tasks, clients saw %d / %d", st.JobsCompleted, st.TasksCompleted, ok, want)
	}
	fleet := sys.Fleet()
	for _, id := range fleet.Devices() {
		if fleet.Peak(id) > fleet.Capacity(id) {
			return fmt.Errorf("device %s oversubscribed: peak %d > capacity %d", id, fleet.Peak(id), fleet.Capacity(id))
		}
	}
	if s.capW > 0 && st.PeakDrawW > s.capW {
		return fmt.Errorf("peak draw %.3f W above cap %.3f W", st.PeakDrawW, s.capW)
	}
	if s.w.Faults {
		switch {
		case st.DevicesLost == 0:
			return fmt.Errorf("fault plan lost no device")
		case st.TasksRetried+st.TasksRestored == 0:
			return fmt.Errorf("fault plan caused no retry or restore")
		case st.Checkpoints == 0:
			return fmt.Errorf("no checkpoint committed")
		case st.StragglersDetected == 0:
			return fmt.Errorf("no straggler detected")
		case st.HedgesWon == 0:
			return fmt.Errorf("no hedge won")
		}
	}
	return nil
}
