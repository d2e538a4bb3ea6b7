package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// small returns the named workload with its rounds cut to a few jobs.
func small(t *testing.T, name string, jobs int) Workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	w.JobsPerRound = jobs
	return w
}

func TestGraphsAreDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.Graphs(7), w.Graphs(7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different graphs", w.Name)
		}
		if reflect.DeepEqual(a, w.Graphs(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same graphs", w.Name)
		}
		if !reflect.DeepEqual(w.FaultPlan(7), w.FaultPlan(7)) {
			t.Errorf("%s: same seed gave different fault plans", w.Name)
		}
	}
}

// At one worker a round's modelled results repeat exactly, round to round.
func TestSimResultsRepeatAtOneWorker(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"dag-wide", "faults-hedged"} {
		w := small(t, name, 4)
		s, err := newSession(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		graphs := w.Graphs(3)
		var sims [][3]float64
		for i := 0; i < 2; i++ {
			r, err := s.Run(ctx, graphs, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if r.Check != nil || r.Failed() != 0 {
				t.Fatalf("%s: check %v, %d jobs failed", name, r.Check, r.Failed())
			}
			sims = append(sims, [3]float64{r.Stats.SessionMakespan.Seconds(), r.Stats.PlatformEnergyJ, r.SimTaskP99()})
		}
		if sims[0] != sims[1] {
			t.Errorf("%s: sim results differ across rounds: %v vs %v", name, sims[0], sims[1])
		}
	}
}

// The timing wrappers must not change what the ledgers decide: a wrapped
// replay matches an unwrapped one job by job, and at one worker both match
// the public run. cap-contended is left out: its PackAndThrottle governor
// breaks ties by map iteration order (power.Ledger throttleLocked and
// unthrottleLocked), so even two unwrapped replays of it can differ.
func TestWrappedLedgerMatchesUnwrapped(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"dag-wide", "faults-hedged"} {
		w := small(t, name, 3)
		w.Workers, w.InFlight = 1, 1
		s, err := newSession(w, 5)
		if err != nil {
			t.Fatal(err)
		}
		graphs := w.Graphs(5)
		plain, err := s.replay(ctx, graphs, false)
		if err != nil {
			t.Fatal(err)
		}
		timed, err := s.replay(ctx, graphs, true)
		if err != nil {
			t.Fatal(err)
		}
		for k := range graphs {
			p, q := plain.Jobs[k], timed.Jobs[k]
			if p.Makespan != q.Makespan || p.EnergyJ != q.EnergyJ || p.Records != q.Records || p.Steps != q.Steps {
				t.Errorf("%s job%d: unwrapped %+v, wrapped %+v", name, k, p, q)
			}
		}
		if timed.TFleet.capacity.calls.Load() == 0 || timed.TPower.operatingPoint.calls.Load() == 0 {
			t.Errorf("%s: wrappers saw no calls", name)
		}
		r, err := s.Run(ctx, graphs, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := matchReplay(timed, r); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPrinterEmitsEveryMetricWithUnit(t *testing.T) {
	for _, defs := range [][]MetricDef{endToEnd, perLayer} {
		values := map[string]float64{}
		for i, d := range defs {
			values[d.Name] = float64(i) + 0.5
		}
		res, err := buildResult(defs, values, true, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var back map[string]json.RawMessage
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if len(back) != 4 {
			t.Errorf("result has keys %v, want correct, attempted, failed, metrics", back)
		}
		var metrics map[string]Metric
		if err := json.Unmarshal(back["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(defs) {
			t.Errorf("printed %d metrics, want %d", len(metrics), len(defs))
		}
		for i, d := range defs {
			if m := metrics[d.Name]; m.Unit != d.Unit || m.Value != float64(i)+0.5 {
				t.Errorf("%s printed as %+v", d.Name, m)
			}
		}
		delete(values, defs[0].Name)
		if _, err := buildResult(defs, values, true, 3, 0); err == nil {
			t.Errorf("a missing %s was not reported", defs[0].Name)
		}
	}
}

// BENCHMARK.json names exactly the metrics and workloads the program
// prints, with the same units, directions and bounds.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []MetricDef             `json:"end_to_end"`
		PerLayer  []MetricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %+v\n code %+v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("file names %d workloads, code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: file %s, code %s", i, w.Name, workloads[i].Name)
		}
	}
}

// One short run of every workload in both modes passes its output checks
// and prints every metric.
func TestEveryWorkloadRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			if code := run([]string{"--workload", w.Name, "--seed", "2", "--seconds", "1", "--trace", trace, "--trace-dir", dir}); code != 0 {
				t.Errorf("%s trace %s: exit %d", w.Name, trace, code)
			}
		}
		if _, err := os.Stat(dir + "/trace-" + w.Name + ".json"); err != nil {
			t.Errorf("%s: no per-layer file: %v", w.Name, err)
		}
	}
	if code := run([]string{"--workload", "nope"}); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}
