// Command sessionbench is the LEGaTO session benchmark. It drives named
// session workloads through the public legato API from one process, in a
// closed loop, and prints host metrics (what the simulator costs to run)
// and modelled sim_ metrics (what the simulated fleet would do), after
// checking the session's outputs.
//
//	sessionbench --workload dag-wide --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it makes
// a separate traced run of the same workload and seed and prints the
// per-layer metrics, measured from outside by timing the benchmark's own
// calls into each module's public functions, and writes its spans and
// per-call aggregates to one per-layer file per workload. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// The exit status is 0 when every output check held, 1 when one failed and
// 2 on a usage or set-up error.
//
// The seed sets the task-cost jitter and the fault-plan seed; the program
// under test receives only the generated graphs. A performance claim made
// with this benchmark must also hold on seed 7777, which no run used while
// the workloads, the fault plan and the run sizes were tuned.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"legato"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("sessionbench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	workload := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed of the task-cost jitter and the fault plan")
	seconds := fs.Int("seconds", 10, "host seconds the run measures")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	outDir := fs.String("trace-dir", filepath.Join(".bench_build", "sessionbench"), "directory of the per-layer files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*workload)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "sessionbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	s, err := newSession(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessionbench:", err)
		return 2
	}
	ctx := context.Background()
	budget := time.Duration(*seconds) * time.Second
	stamp := newStamp(w.Name, *seed, *seconds, *traceFlag == 1)

	var out outcome
	defs := endToEnd
	if *traceFlag == 1 {
		defs = perLayer
		var file *layerFile
		out, file = s.traced(ctx, budget)
		if file != nil {
			file.Stamp = stamp
			file.Metrics = out.values
			path := filepath.Join(*outDir, "trace-"+w.Name+".json")
			if err := writeJSON(path, file); err != nil {
				fmt.Fprintln(os.Stderr, "sessionbench: writing per-layer file:", err)
				return 2
			}
			fmt.Fprintln(os.Stderr, "sessionbench: per-layer file", path)
		}
	} else {
		out = s.measure(ctx, budget)
	}
	if out.setupErr != nil {
		fmt.Fprintln(os.Stderr, "sessionbench:", out.setupErr)
		return 2
	}
	correct := out.check == nil && out.failed == 0
	if out.check != nil {
		fmt.Fprintln(os.Stderr, "sessionbench: OUTPUT CHECK FAILED:", out.check)
	}
	for _, e := range out.jobErrs {
		fmt.Fprintln(os.Stderr, "sessionbench: job failed:", e)
	}
	res, err := buildResult(defs, out.values, correct, out.attempted, out.failed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessionbench:", err)
		return 2
	}
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "%-36s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if err := printRecord(os.Stdout, stamp, res); err != nil {
		fmt.Fprintln(os.Stderr, "sessionbench:", err)
		return 2
	}
	if !correct {
		return 1
	}
	return 0
}

// outcome is what a run hands to the printer.
type outcome struct {
	values            map[string]float64
	attempted, failed int
	check             error   // first failed session-level output check
	jobErrs           []error // first few job failures
	setupErr          error   // the run could not be made at all
}

// tally folds one round's job outcomes and checks into o.
func (o *outcome) tally(r *Round) {
	o.attempted += len(r.Jobs)
	o.failed += r.Failed()
	for _, j := range r.Jobs {
		if j.Err != nil && len(o.jobErrs) < 5 {
			o.jobErrs = append(o.jobErrs, j.Err)
		}
	}
	if r.Check != nil && o.check == nil {
		o.check = r.Check
	}
}

// measure is the untraced run: fixed-size rounds until the budget has
// passed, each preceded by one complete set-up (NewSystem, the warm-up
// job, Close) so set-up samples span the run like the rounds do; then the
// replay check.
func (s *session) measure(ctx context.Context, budget time.Duration) outcome {
	o := outcome{values: map[string]float64{}}
	graphs := s.w.Graphs(s.seed)
	var setups []float64
	var tput, allocs, bytesPT, heap, makespan, energy, p99, lat []float64
	var last *Round
	deadline := time.Now().Add(budget)
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		d, err := s.Setup(ctx)
		if err != nil {
			o.setupErr = fmt.Errorf("set-up: %w", err)
			return o
		}
		setups = append(setups, d.Seconds())
		r, err := s.Run(ctx, graphs, nil, false)
		if err != nil {
			o.setupErr = err
			return o
		}
		o.tally(r)
		last = r
		tasks := float64(max(r.Tasks, 1))
		tput = append(tput, float64(r.Tasks)/r.Wall.Seconds())
		allocs = append(allocs, float64(r.Mallocs)/tasks)
		bytesPT = append(bytesPT, float64(r.AllocBytes)/tasks)
		heap = append(heap, float64(r.LiveHeap)/(1<<20))
		makespan = append(makespan, r.Stats.SessionMakespan.Seconds())
		energy = append(energy, r.Stats.PlatformEnergyJ)
		p99 = append(p99, r.SimTaskP99())
		for _, j := range r.Jobs {
			lat = append(lat, float64(j.Latency.Nanoseconds())/1e6)
		}
	}
	if s.w.Workers == 1 && o.check == nil {
		rep, err := s.replay(ctx, graphs, false)
		if err == nil {
			err = matchReplay(rep, last)
		}
		if err != nil {
			o.check = fmt.Errorf("ledger replay: %w", err)
		}
	}
	o.values = map[string]float64{
		"tasks_per_s":      median(tput),
		"job_ms_p50":       percentile(lat, 0.5),
		"job_ms_p90":       percentile(lat, 0.9),
		"allocs_per_task":  median(allocs),
		"bytes_per_task":   median(bytesPT),
		"live_heap_mb":     median(heap),
		"setup_s":          median(setups),
		"sim_makespan_s":   median(makespan),
		"sim_energy_j":     median(energy),
		"sim_task_p99_s":   median(p99),
		"job_success_rate": 1 - float64(o.failed)/float64(max(o.attempted, 1)),
	}
	return o
}

// layerFile is the traced run's per-layer record.
type layerFile struct {
	Stamp       Stamp              `json:"stamp"`
	Metrics     map[string]float64 `json:"metrics"`
	TimerCostNs float64            `json:"timer_cost_ns"`
	Calls       map[string]Agg     `json:"calls"`
	Rounds      struct {
		Plain, Traced, Replays, OutputPasses int
	} `json:"rounds"`
	Spans []Span `json:"spans"`
}

// traced is the separate traced run. Its budget is split: alternating
// plain and span-traced public rounds (the overhead pair and the API
// spans), one kept round with the event log armed whose artefacts feed the
// output replays, timed ledger replays, and the output replays.
func (s *session) traced(ctx context.Context, budget time.Duration) (outcome, *layerFile) {
	o := outcome{values: map[string]float64{}}
	file := &layerFile{Calls: map[string]Agg{}}
	graphs := s.w.Graphs(s.seed)
	nodes := 0
	for _, g := range graphs {
		nodes += g.Nodes()
	}
	rec := newRecorder()
	v := o.values

	// Phase 1: the overhead pair and the API spans.
	var plainPT, tracedPT []float64
	perRound := map[string][]float64{}
	deadline := time.Now().Add(budget * 4 / 10)
	for n := 0; n < 4 || time.Now().Before(deadline); n++ {
		var rr *recorder
		if n%4 == 1 || n%4 == 2 { // ABBA order cancels drift
			rr = rec
		}
		r, err := s.Run(ctx, graphs, rr, false)
		if err != nil {
			o.setupErr = err
			return o, nil
		}
		o.tally(r)
		tasks := float64(max(r.Tasks, 1))
		if rr == nil {
			plainPT = append(plainPT, r.Wall.Seconds()/tasks)
		} else {
			tracedPT = append(tracedPT, r.Wall.Seconds()/tasks)
		}
		st := r.Stats
		sdc := 0
		for _, j := range r.Jobs {
			if j.Report != nil {
				sdc += j.Report.SDCDetected
			}
		}
		for k, x := range map[string]float64{
			"engine.admission_stalls_per_task": float64(st.AdmissionStalls) / tasks,
			"engine.power_stalls_per_task":     float64(st.PowerStalls) / tasks,
			"power.rescales_per_task":          float64(st.GovernorRescales) / tasks,
			"taskrt.retries_per_task":          float64(st.TasksRetried) / tasks,
			"taskrt.restores_per_task":         float64(st.TasksRestored) / tasks,
			"taskrt.checkpoints_per_job":       float64(st.Checkpoints) / float64(len(r.Jobs)),
			"taskrt.stragglers_per_task":       float64(st.StragglersDetected) / tasks,
			"taskrt.hedges_per_task":           float64(st.HedgesLaunched) / tasks,
			"taskrt.hedge_win_ratio":           ratio(st.HedgesWon, st.HedgesLaunched),
			"taskrt.hedge_waste_frac":          st.HedgeWastedJ / st.PlatformEnergyJ,
			"faults.devices_lost":              float64(st.DevicesLost),
			"faults.sdc_detected_per_task":     float64(sdc) / tasks,
		} {
			perRound[k] = append(perRound[k], x)
		}
	}
	file.Rounds.Plain, file.Rounds.Traced = len(plainPT), len(tracedPT)
	for k, xs := range perRound {
		v[k] = median(xs)
	}
	v["bench.traced_overhead_frac"] = median(tracedPT)/median(plainPT) - 1

	// Phase 2: one kept round with the event log armed.
	capture, err := s.Run(ctx, graphs, rec, true, legato.WithEventLog())
	if err != nil {
		o.setupErr = err
		return o, nil
	}
	o.tally(capture)
	sys := capture.System
	outs := Outputs{
		Events:   capture.Events,
		Spans:    sys.Tracer().Spans(),
		Counters: sys.Tracer().Counters(),
		Snapshot: sys.Monitor().Snapshot(),
	}
	sp := rec.begin("Close", 0)
	if err := sys.Close(ctx); err != nil && o.check == nil {
		o.check = fmt.Errorf("Close: %w", err)
	}
	rec.end(sp)
	capTasks := float64(max(capture.Tasks, 1))
	v["obs.events_per_task"] = float64(len(outs.Events)) / capTasks
	v["obs.export_bytes_per_task"] = float64(capture.ExportBytes) / capTasks
	v["trace.spans_per_task"] = float64(len(outs.Spans)) / capTasks

	spanMed := func(name string, unit float64) float64 { return median(rec.durations(name)) / unit }
	v["legato.new_system_ms"] = spanMed("NewSystem", 1e6)
	v["legato.new_job_us"] = spanMed("NewJob", 1e3)
	v["legato.run_ms_per_job"] = spanMed("Start→Done", 1e6)
	v["legato.report_us"] = spanMed("Wait", 1e3)
	v["legato.export_ms"] = spanMed("ExportSession", 1e6)
	var submitNs float64
	for _, d := range rec.durations("Submit") {
		submitNs += d
	}
	// Every traced round plus the kept round submitted the same graphs.
	v["legato.submit_ns_per_task"] = submitNs / float64(nodes*(len(tracedPT)+1))

	// Phase 3: timed ledger replays.
	calib := timerCost()
	file.TimerCostNs = calib
	var fleets []*timedFleet
	var pows []*timedPower
	var tasks, placements int64
	var steps uint64
	var runNs, schedNs int64
	var boxUs, enclUs, schedUs []float64
	deadline = time.Now().Add(budget * 3 / 10)
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		rep, err := s.replay(ctx, graphs, true)
		if err == nil && n == 0 && s.w.Workers == 1 {
			err = matchReplay(rep, capture)
		}
		if err != nil {
			if o.check == nil {
				o.check = fmt.Errorf("ledger replay: %w", err)
			}
			break
		}
		fleets, pows = append(fleets, rep.TFleet), append(pows, rep.TPower)
		tasks += int64(rep.Tasks())
		placements += rep.Placements
		schedNs += rep.ScheduleNs
		if s.w.Faults {
			schedUs = append(schedUs, float64(rep.ScheduleNs)/1e3)
		}
		for _, j := range rep.Jobs {
			steps += j.Steps
			runNs += j.RunNs
			boxUs = append(boxUs, float64(j.BoxNs)/1e3)
			enclUs = append(enclUs, float64(j.EnclNs)/1e3)
		}
		file.Rounds.Replays++
	}
	calls := func(pick func(*timedFleet, *timedPower) *CallStat) Agg {
		var sum CallStat
		for i := range fleets {
			c := pick(fleets[i], pows[i])
			sum.calls.Add(c.calls.Load())
			sum.refused.Add(c.refused.Load())
			sum.ns.Add(c.ns.Load())
		}
		return sum.agg(calib)
	}
	named := map[string]func(*timedFleet, *timedPower) *CallStat{
		"engine.Fleet.Capacity":       func(f *timedFleet, _ *timedPower) *CallStat { return &f.capacity },
		"engine.Fleet.TryAcquire":     func(f *timedFleet, _ *timedPower) *CallStat { return &f.tryAcquire },
		"engine.Fleet.Release":        func(f *timedFleet, _ *timedPower) *CallStat { return &f.release },
		"engine.Fleet.Changed":        func(f *timedFleet, _ *timedPower) *CallStat { return &f.chang },
		"power.Ledger.OperatingPoint": func(_ *timedFleet, p *timedPower) *CallStat { return &p.operatingPoint },
		"power.Ledger.TryDraw":        func(_ *timedFleet, p *timedPower) *CallStat { return &p.tryDraw },
		"power.Ledger.ReleaseDraw":    func(_ *timedFleet, p *timedPower) *CallStat { return &p.releaseD },
		"power.Ledger.Changed":        func(_ *timedFleet, p *timedPower) *CallStat { return &p.chng },
	}
	var inLedgers int64
	for name, pick := range named {
		a := calls(pick)
		file.Calls[name] = a
		inLedgers += a.TotalNs
	}
	file.Calls["taskrt.Runtime.RunContext"] = Agg{Calls: tasks, TotalNs: runNs}
	file.Calls["faults.NewInjector"] = Agg{Calls: int64(len(schedUs)), TotalNs: schedNs}
	ft := float64(max(tasks, 1))
	perTask := func(name string) float64 { return float64(file.Calls[name].Calls) / ft }
	refusal := func(name string) float64 { return ratio(int(file.Calls[name].Refused), int(file.Calls[name].Calls)) }
	v["engine.fleet.capacity_per_task"] = perTask("engine.Fleet.Capacity")
	v["engine.fleet.capacity_ns"] = file.Calls["engine.Fleet.Capacity"].NetNsPerCall
	v["engine.fleet.try_acquire_per_task"] = perTask("engine.Fleet.TryAcquire")
	v["engine.fleet.try_acquire_ns"] = file.Calls["engine.Fleet.TryAcquire"].NetNsPerCall
	v["engine.fleet.release_ns"] = file.Calls["engine.Fleet.Release"].NetNsPerCall
	v["engine.fleet.changed_per_task"] = perTask("engine.Fleet.Changed")
	v["engine.fleet.refusal_ratio"] = refusal("engine.Fleet.TryAcquire")
	v["power.operating_point_per_task"] = perTask("power.Ledger.OperatingPoint")
	v["power.operating_point_ns"] = file.Calls["power.Ledger.OperatingPoint"].NetNsPerCall
	v["power.try_draw_ns"] = file.Calls["power.Ledger.TryDraw"].NetNsPerCall
	v["power.release_draw_ns"] = file.Calls["power.Ledger.ReleaseDraw"].NetNsPerCall
	v["power.refusal_ratio"] = refusal("power.Ledger.TryDraw")
	v["taskrt.run_self_ns_per_task"] = float64(runNs-inLedgers) / ft
	v["taskrt.placements_per_task"] = float64(placements) / ft
	v["sim.events_per_task"] = float64(steps) / ft
	v["sim.run_ns_per_event"] = float64(runNs) / float64(max(steps, 1))
	v["hw.cloud_box_us"] = median(boxUs)
	v["secure.enclave_new_us"] = median(enclUs)
	v["faults.schedule_us"] = median(schedUs)

	// Phase 4: output replays.
	ot, err := replayOutputs(outs, budget*2/10)
	if err != nil && o.check == nil {
		o.check = fmt.Errorf("output replay: %w", err)
	}
	file.Rounds.OutputPasses = ot.Passes
	v["obs.publish_idle_ns"] = ot.PublishIdleNs
	v["obs.publish_observed_ns"] = ot.PublishObservedNs
	v["obs.publish_subscribed_ns"] = ot.PublishSubscribedNs
	v["obs.session_dump_mb_per_s"] = ot.DumpMBps
	v["obs.chrome_trace_mb_per_s"] = ot.ChromeMBps
	v["obs.prometheus_text_us"] = ot.PromUs
	v["monitor.snapshot_us"] = ot.SnapshotUs
	v["monitor.scopes"] = float64(ot.Scopes)
	v["trace.spans_copy_ms"] = ot.SpansCopyMs
	v["job_error_rate"] = float64(o.failed) / float64(max(o.attempted, 1))

	rec.mu.Lock()
	file.Spans = append([]Span(nil), rec.spans...)
	rec.mu.Unlock()
	sort.SliceStable(file.Spans, func(i, j int) bool { return file.Spans[i].ID < file.Spans[j].ID })
	return o, file
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
