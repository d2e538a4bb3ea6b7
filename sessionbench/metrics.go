package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// MetricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are reported with tracing off. Host metrics are what the
// simulator costs to run; the sim_ metrics are what the modelled fleet
// would do, and a pure simulator speed-up leaves them unchanged.
var endToEnd = []MetricDef{
	{"tasks_per_s", "tasks/s", "higher", 0.25},
	{"job_ms_p50", "ms", "lower", 0.25},
	{"job_ms_p90", "ms", "lower", 0.25},
	{"allocs_per_task", "allocs", "lower", 0.05},
	{"bytes_per_task", "B", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
	{"sim_makespan_s", "virtual_s", "lower", 0.1},
	{"sim_energy_j", "virtual_J", "lower", 0.1},
	{"sim_task_p99_s", "virtual_s", "lower", 0.1},
	{"job_success_rate", "fraction", "higher", 0.01},
}

// perLayer are reported by the traced run, grouped by the layer (module)
// whose public functions the benchmark times or counts.
var perLayer = []MetricDef{
	// legato, taskrt, sim: submission, dispatch and the event heap.
	{"legato.submit_ns_per_task", "ns", "lower", 0},
	{"taskrt.run_self_ns_per_task", "ns", "lower", 0},
	{"sim.events_per_task", "events", "lower", 0},
	{"sim.run_ns_per_event", "ns", "lower", 0},
	// engine: the Fleet core ledger.
	{"engine.fleet.capacity_per_task", "calls", "lower", 0},
	{"engine.fleet.capacity_ns", "ns", "lower", 0},
	{"engine.fleet.try_acquire_per_task", "calls", "lower", 0},
	{"engine.fleet.try_acquire_ns", "ns", "lower", 0},
	{"engine.fleet.release_ns", "ns", "lower", 0},
	{"engine.fleet.changed_per_task", "calls", "lower", 0},
	{"engine.fleet.refusal_ratio", "ratio", "lower", 0},
	{"engine.admission_stalls_per_task", "stalls", "lower", 0},
	// power: the watt ledger and governor.
	{"power.operating_point_per_task", "calls", "lower", 0},
	{"power.operating_point_ns", "ns", "lower", 0},
	{"power.try_draw_ns", "ns", "lower", 0},
	{"power.release_draw_ns", "ns", "lower", 0},
	{"power.refusal_ratio", "ratio", "lower", 0},
	{"power.rescales_per_task", "rescales", "lower", 0},
	{"engine.power_stalls_per_task", "stalls", "lower", 0},
	// legato, hw, secure: job and system set-up.
	{"legato.new_job_us", "us", "lower", 0},
	{"hw.cloud_box_us", "us", "lower", 0},
	{"secure.enclave_new_us", "us", "lower", 0},
	{"legato.new_system_ms", "ms", "lower", 0},
	// taskrt recovery and tail, faults.
	{"taskrt.placements_per_task", "placements", "lower", 0},
	{"taskrt.retries_per_task", "retries", "lower", 0},
	{"taskrt.restores_per_task", "restores", "lower", 0},
	{"taskrt.checkpoints_per_job", "checkpoints", "lower", 0},
	{"taskrt.stragglers_per_task", "stragglers", "lower", 0},
	{"taskrt.hedges_per_task", "hedges", "lower", 0},
	{"taskrt.hedge_win_ratio", "ratio", "higher", 0},
	{"taskrt.hedge_waste_frac", "fraction", "lower", 0},
	{"faults.schedule_us", "us", "lower", 0},
	{"faults.devices_lost", "devices", "lower", 0},
	{"faults.sdc_detected_per_task", "detections", "lower", 0},
	// obs, trace, monitor, report and export.
	{"obs.events_per_task", "events", "lower", 0},
	{"obs.publish_idle_ns", "ns", "lower", 0},
	{"obs.publish_observed_ns", "ns", "lower", 0},
	{"obs.publish_subscribed_ns", "ns", "lower", 0},
	{"obs.session_dump_mb_per_s", "MB/s", "higher", 0},
	{"obs.chrome_trace_mb_per_s", "MB/s", "higher", 0},
	{"obs.prometheus_text_us", "us", "lower", 0},
	{"obs.export_bytes_per_task", "B", "lower", 0},
	{"legato.export_ms", "ms", "lower", 0},
	{"legato.report_us", "us", "lower", 0},
	{"legato.run_ms_per_job", "ms", "lower", 0},
	{"trace.spans_per_task", "spans", "lower", 0},
	{"trace.spans_copy_ms", "ms", "lower", 0},
	{"monitor.scopes", "scopes", "lower", 0},
	{"monitor.snapshot_us", "us", "lower", 0},
	// the benchmark itself, and the job outcome the end-to-end rate hides.
	{"bench.traced_overhead_frac", "fraction", "lower", 0},
	{"job_error_rate", "fraction", "lower", 0},
}

// Metric is one printed value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// buildResult attaches units to the values of every metric in defs; a
// metric the run did not produce is an error, so no name goes missing.
func buildResult(defs []MetricDef, values map[string]float64, correct bool, attempted, failed int) (Result, error) {
	res := Result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]Metric, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// Stamp identifies where and on what a result was measured.
type Stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Commit     string `json:"commit"`
}

// newStamp fills the host fields. The commit comes from BENCH_COMMIT
// (run.py sets it from git), else "unknown": a source tree without version
// control.
func newStamp(workload string, seed int64, seconds int, trace bool) Stamp {
	st := Stamp{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Commit: os.Getenv("BENCH_COMMIT"),
	}
	if st.Commit == "" {
		st.Commit = "unknown"
	}
	return st
}

// printRecord writes the stamp line and then the result as the last line.
func printRecord(w io.Writer, st Stamp, res Result) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		Stamp Stamp `json:"stamp"`
	}{st}); err != nil {
		return err
	}
	return enc.Encode(res)
}
