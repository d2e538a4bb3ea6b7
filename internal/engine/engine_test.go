package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"legato/internal/hw"
	"legato/internal/monitor"
	"legato/internal/sim"
	"legato/internal/taskrt"
)

// testFleet is a two-device reference fleet: an 8-core CPU and a 4-region
// FPGA, enough to exercise placement and admission.
func testFleet() []*hw.Device {
	se := sim.NewEngine()
	cpu := hw.Spec{Name: "cpu", Class: hw.CPUx86, Cores: 8, GOPS: 80, IdleWatts: 10, PeakWatts: 60}
	fpga := hw.Spec{Name: "fpga", Class: hw.FPGA, Cores: 4, GOPS: 120, IdleWatts: 5, PeakWatts: 25}
	return []*hw.Device{hw.NewDevice(se, "dev/cpu", cpu), hw.NewDevice(se, "dev/fpga", fpga)}
}

func newTestEngine(t testing.TB, workers int) *Engine {
	t.Helper()
	e, err := New(Config{Workers: workers, Policy: taskrt.MinTime, Fleet: testFleet(),
		Registry: monitor.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Shutdown(context.Background()) })
	return e
}

// chainJob builds a job of `depth` dependent tasks of `cores` width each.
func chainJob(t testing.TB, e *Engine, name string, depth, cores int, fn func()) *Job {
	t.Helper()
	j, err := e.NewJob(name)
	if err != nil {
		t.Fatal(err)
	}
	rt := j.Runtime()
	prev := rt.Data(name+"/d0", 64)
	for i := 0; i < depth; i++ {
		next := rt.Data(fmt.Sprintf("%s/d%d", name, i+1), 64)
		task := taskrt.Task{Name: fmt.Sprintf("%s/t%d", name, i), Gops: 20, Cores: cores,
			In: []*taskrt.Data{prev}, Out: []*taskrt.Data{next}}
		if i == depth/2 {
			task.Fn = fn
		}
		if err := rt.Submit(task); err != nil {
			t.Fatal(err)
		}
		prev = next
	}
	return j
}

func TestFleetLedger(t *testing.T) {
	devs := testFleet()
	f := NewFleet(devs)
	if !f.TryAcquire("dev/cpu", 8) {
		t.Fatal("full acquire refused")
	}
	if f.TryAcquire("dev/cpu", 1) {
		t.Fatal("oversubscription allowed")
	}
	if f.Stalls() != 1 {
		t.Fatalf("stalls = %d, want 1", f.Stalls())
	}
	ch := f.Changed()
	select {
	case <-ch:
		t.Fatal("Changed closed before any release")
	default:
	}
	f.Release("dev/cpu", 8)
	select {
	case <-ch:
	default:
		t.Fatal("release did not signal Changed")
	}
	if f.Peak("dev/cpu") != 8 || f.InUse("dev/cpu") != 0 {
		t.Fatalf("peak=%d inuse=%d", f.Peak("dev/cpu"), f.InUse("dev/cpu"))
	}
	if f.TryAcquire("dev/ghost", 1) {
		t.Fatal("unknown device admitted")
	}
}

func TestConcurrentJobsNeverOversubscribe(t *testing.T) {
	e := newTestEngine(t, 8)
	ctx := context.Background()
	var jobs []*Job
	for i := 0; i < 12; i++ {
		j := chainJob(t, e, fmt.Sprintf("job%d", i), 6, 3, nil)
		jobs = append(jobs, j)
		if err := e.Submit(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v", j.Name, err)
		}
	}
	for _, id := range []string{"dev/cpu", "dev/fpga"} {
		if e.Fleet().Peak(id) > e.Fleet().Capacity(id) {
			t.Fatalf("device %s oversubscribed: peak %d > cap %d",
				id, e.Fleet().Peak(id), e.Fleet().Capacity(id))
		}
		if e.Fleet().InUse(id) != 0 {
			t.Fatalf("device %s stranded capacity: %d in use", id, e.Fleet().InUse(id))
		}
	}
	st := e.Stats()
	if st.JobsCompleted != 12 || st.TasksCompleted != 12*6 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestContentionSerializes forces every job through a single 4-core-wide
// bottleneck: tasks demand the FPGA's full width, so admission must
// serialise them and every parked job must still finish.
func TestContentionSerializes(t *testing.T) {
	e := newTestEngine(t, 6)
	ctx := context.Background()
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := e.NewJob(fmt.Sprintf("narrow%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			if err := j.Runtime().Submit(taskrt.Task{
				Name: fmt.Sprintf("n%d", k), Gops: 30, Cores: 4,
				Targets: []hw.Class{hw.FPGA},
			}); err != nil {
				t.Fatal(err)
			}
		}
		jobs = append(jobs, j)
		if err := e.Submit(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v", j.Name, err)
		}
	}
	if peak, cap := e.Fleet().Peak("dev/fpga"), e.Fleet().Capacity("dev/fpga"); peak > cap {
		t.Fatalf("fpga oversubscribed: %d > %d", peak, cap)
	}
}

// Two jobs on two workers contend for the one 4-region FPGA: each is a
// chain of three tasks that need its full width, so while one job holds it
// the other stalls, takes the ledger's change channel, retries once and
// parks until a release wakes it. The first job to win the FPGA holds its
// first task until the sibling has stalled twice (the refusal and the retry
// before the park), so a park really happens. Every record must come out
// as if the job had run alone, and no goroutine may outlive Shutdown.
func TestContendedJobParksAndWakes(t *testing.T) {
	before := runtime.NumGoroutine()
	e, err := New(Config{Workers: 2, Policy: taskrt.MinTime, Fleet: testFleet()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	span := testFleet()[1].ExecTime(30, 4)
	var hold sync.Once
	var jobs []*Job
	for i := 0; i < 2; i++ {
		j, err := e.NewJob(fmt.Sprintf("fpga%d", i))
		if err != nil {
			t.Fatal(err)
		}
		rt := j.Runtime()
		rt.AddHooks(taskrt.Hooks{Started: func(*taskrt.Record) {
			hold.Do(func() {
				for end := time.Now().Add(10 * time.Second); e.Fleet().Stalls() < 2 && time.Now().Before(end); {
					time.Sleep(50 * time.Microsecond)
				}
			})
		}})
		prev := rt.Data(j.Name+"/d0", 64)
		for k := 0; k < 3; k++ {
			next := rt.Data(fmt.Sprintf("%s/d%d", j.Name, k+1), 64)
			if err := rt.Submit(taskrt.Task{
				Name: fmt.Sprintf("%s/t%d", j.Name, k), Gops: 30, Cores: 4,
				Targets: []hw.Class{hw.FPGA},
				In:      []*taskrt.Data{prev}, Out: []*taskrt.Data{next},
			}); err != nil {
				t.Fatal(err)
			}
			prev = next
		}
		jobs = append(jobs, j)
		if err := e.Submit(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("job %s: %v", j.Name, err)
		}
		if len(res.Records) != 3 {
			t.Fatalf("job %s: %d records, want 3", j.Name, len(res.Records))
		}
		for k, r := range res.Records {
			if r.Device != "dev/fpga" || r.Attempts != 1 || r.End-r.Start != span || r.EnergyJ <= 0 {
				t.Fatalf("job %s record %d: %+v (span %v)", j.Name, k, r, span)
			}
			if k > 0 && r.Start < res.Records[k-1].End {
				t.Fatalf("job %s: task %d started at %v before its input ended at %v",
					j.Name, k, r.Start, res.Records[k-1].End)
			}
		}
	}
	f := e.Fleet()
	if f.Stalls() < 2 {
		t.Fatalf("%d admission stalls: no job parked", f.Stalls())
	}
	if f.InUse("dev/fpga") != 0 || f.Peak("dev/fpga") > f.Capacity("dev/fpga") {
		t.Fatalf("fpga in use %d, peak %d of %d", f.InUse("dev/fpga"), f.Peak("dev/fpga"), f.Capacity("dev/fpga"))
	}
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	n := runtime.NumGoroutine()
	for end := time.Now().Add(5 * time.Second); n > before && time.Now().Before(end); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Fatalf("%d goroutines after Shutdown, %d before the engine", n, before)
	}
}

func TestCancelMidRun(t *testing.T) {
	e := newTestEngine(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The middle task of the chain cancels the job's own context.
	j := chainJob(t, e, "doomed", 9, 1, cancel)
	if err := e.Submit(ctx, j); err != nil {
		t.Fatal(err)
	}
	_, err := j.Wait(context.Background())
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if j.State() != Cancelled {
		t.Fatalf("state = %v, want Cancelled", j.State())
	}
	// The aborted job must not strand fleet capacity.
	for _, id := range []string{"dev/cpu", "dev/fpga"} {
		if e.Fleet().InUse(id) != 0 {
			t.Fatalf("device %s stranded: %d cores held", id, e.Fleet().InUse(id))
		}
	}
}

func TestPerJobTimeout(t *testing.T) {
	e := newTestEngine(t, 1)
	j := chainJob(t, e, "deadline", 4, 1, nil)
	j.SetTimeout(time.Nanosecond)
	if err := e.Submit(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if j.State() != Cancelled {
		t.Fatalf("state = %v", j.State())
	}
}

func TestShutdownDrains(t *testing.T) {
	e, err := New(Config{Workers: 2, Policy: taskrt.MinTime, Fleet: testFleet()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var jobs []*Job
	for i := 0; i < 5; i++ {
		j := chainJob(t, e, fmt.Sprintf("drain%d", i), 4, 1, nil)
		jobs = append(jobs, j)
		if err := e.Submit(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.State() != Done {
			t.Fatalf("job %s not drained: %v", j.Name, j.State())
		}
	}
	late := chainJob(t, e, "late", 1, 1, nil)
	if err := e.Submit(ctx, late); err == nil {
		t.Fatal("submit after shutdown accepted")
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	e := newTestEngine(t, 4)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			j := chainJob(t, e, fmt.Sprintf("conc%d", g), 5, 1, nil)
			if err := e.Submit(ctx, j); err != nil {
				errs <- err
				return
			}
			if _, err := j.Wait(ctx); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := e.Stats(); st.JobsCompleted != 8 {
		t.Fatalf("completed %d, want 8", st.JobsCompleted)
	}
}

// TestSerialVsConcurrentFleetTime pins down the throughput accounting: one
// worker degenerates to serial submission (session makespan = sum of job
// makespans), a full-width pool overlaps independent jobs on the fleet.
func TestSerialVsConcurrentFleetTime(t *testing.T) {
	run := func(workers int) Stats {
		e := newTestEngine(t, workers)
		ctx := context.Background()
		var jobs []*Job
		for i := 0; i < 4; i++ {
			j := chainJob(t, e, fmt.Sprintf("w%d-job%d", workers, i), 5, 1, nil)
			jobs = append(jobs, j)
			if err := e.Submit(ctx, j); err != nil {
				t.Fatal(err)
			}
		}
		for _, j := range jobs {
			if _, err := j.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
		return e.Stats()
	}
	serial := run(1)
	conc := run(4)
	if serial.SessionMakespan != serial.TotalJobTime {
		t.Fatalf("serial session %v != total %v", serial.SessionMakespan, serial.TotalJobTime)
	}
	if conc.TotalJobTime != serial.TotalJobTime {
		t.Fatalf("job work differs: %v vs %v", conc.TotalJobTime, serial.TotalJobTime)
	}
	if sp := conc.Speedup(); sp < 2 {
		t.Fatalf("concurrent speedup %.2fx, want >= 2x", sp)
	}
}
