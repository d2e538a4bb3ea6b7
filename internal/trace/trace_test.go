package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"legato/internal/seg"
	"legato/internal/sim"
)

func TestSpanTiming(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(eng)
	var id int
	eng.Schedule(10, func() { id = tr.Begin("task-a", "compute", "cpu0") })
	eng.Schedule(25, func() { tr.End(id) })
	eng.Run()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans: %d", len(spans))
	}
	if spans[0].Start != 10 || spans[0].End != 25 || spans[0].Duration() != 15 {
		t.Fatalf("span timing: %+v", spans[0])
	}
}

func TestEndUnknownIgnored(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(eng)
	tr.End(42) // must not panic
	if len(tr.Spans()) != 0 {
		t.Fatal("phantom span")
	}
}

func TestByCategory(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(eng)
	a := tr.Begin("x", "compute", "cpu0")
	eng.Schedule(5, func() { tr.End(a) })
	eng.Schedule(5, func() {
		b := tr.Begin("y", "io", "nvme0")
		eng.Schedule(7, func() { tr.End(b) })
	})
	eng.Run()
	cats := tr.ByCategory()
	if cats["compute"] != 5 || cats["io"] != 7 {
		t.Fatalf("categories: %v", cats)
	}
}

func TestCounters(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(eng)
	tr.Count("bytes", 100)
	tr.Count("bytes", 50)
	if tr.Counter("bytes") != 150 {
		t.Fatalf("counter: %v", tr.Counter("bytes"))
	}
}

func TestExportParaver(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(eng)
	id := tr.Begin("task", "compute", "gpu0")
	eng.Schedule(3, func() { tr.End(id) })
	eng.Run()
	tr.Count("faults", 2)
	out := tr.ExportParaver()
	for _, frag := range []string{"#Paraver", "gpu0", "compute", "task", "faults"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("export missing %q:\n%s", frag, out)
		}
	}
}

// TestConcurrentTracerUse hammers Begin/End/Add/Count on one tracer from
// parallel goroutines while sibling tracers Merge into it — the shape of
// a session trace receiving completed jobs while others still record.
// Run under -race; the witness is no race and no lost span.
func TestConcurrentTracerUse(t *testing.T) {
	session := New(sim.NewEngine())
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := New(sim.NewEngine())
			for i := 0; i < perWorker; i++ {
				id := session.Begin(fmt.Sprintf("w%d/t%d", w, i), "task", "dev")
				session.End(id)
				local.Add(Span{Name: fmt.Sprintf("w%d/l%d", w, i), Category: "local", Resource: "dev"})
				local.Count("bytes", 1)
				session.Count("ops", 1)
			}
			session.Merge(local)
		}(w)
	}
	wg.Wait()
	if got := len(session.Spans()); got != 2*workers*perWorker {
		t.Fatalf("lost spans under concurrency: %d, want %d", got, 2*workers*perWorker)
	}
	if session.Counter("ops") != workers*perWorker || session.Counter("bytes") != workers*perWorker {
		t.Fatalf("lost counts: ops=%v bytes=%v", session.Counter("ops"), session.Counter("bytes"))
	}
}

func TestMergeSelfAndNilAreNoOps(t *testing.T) {
	tr := New(sim.NewEngine())
	tr.Add(Span{Name: "x", Category: "task", Resource: "d"})
	tr.Merge(nil)
	tr.Merge(tr)
	if len(tr.Spans()) != 1 {
		t.Fatalf("self/nil merge changed spans: %d", len(tr.Spans()))
	}
}

// TestSeriesVirtualTimeOrder records samples out of submission order and
// checks Series returns them sorted by virtual time.
func TestSeriesVirtualTimeOrder(t *testing.T) {
	tr := New(sim.NewEngine())
	at := func(s sim.Time, v float64) {
		tr.Add(Span{Name: "draw", Category: "power", Resource: "fleet", Start: s, End: s, Value: v})
	}
	at(30, 3)
	at(10, 1)
	at(20, 2)
	at(5, 0.5)
	xs, ys := tr.Series("power")
	if len(xs) != 4 {
		t.Fatalf("series length %d", len(xs))
	}
	if !sort.Float64sAreSorted(xs) {
		t.Fatalf("series x values not time-sorted: %v", xs)
	}
	want := []float64{0.5, 1, 2, 3}
	for i, v := range want {
		if ys[i] != v {
			t.Fatalf("series values out of order: %v", ys)
		}
	}
}

func TestCountersCopy(t *testing.T) {
	tr := New(sim.NewEngine())
	tr.Count("a", 2)
	c := tr.Counters()
	c["a"] = 99
	if tr.Counter("a") != 2 {
		t.Fatal("Counters returned a live reference")
	}
}

func TestParaverTextMatchesExport(t *testing.T) {
	tr := New(sim.NewEngine())
	tr.Add(Span{Name: "t0", Category: "task", Resource: "gpu0", Start: 1, End: 5})
	tr.Count("hedges", 1)
	if got, want := ParaverText(tr.Spans(), tr.Counters()), tr.ExportParaver(); got != want {
		t.Fatalf("package-level render diverges:\n%s\nvs\n%s", got, want)
	}
}

func TestSummary(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(eng)
	id := tr.Begin("t", "ckpt", "node0")
	eng.Schedule(4, func() { tr.End(id) })
	eng.Run()
	if !strings.Contains(tr.Summary(), "ckpt") {
		t.Fatal("summary missing category")
	}
}

// jobSpans is a deterministic batch of n spans for job k, mixing
// categories and timestamps that are not monotone in recording order.
func jobSpans(k, n int) []Span {
	cats := []string{"task", "power", "queue", "hedge"}
	out := make([]Span, n)
	for i := range out {
		at := sim.Time((i*37+k*11)%97) * 1000
		out[i] = Span{
			Name: fmt.Sprintf("j%d/t%d", k, i), Category: cats[(i+k)%len(cats)],
			Resource: fmt.Sprintf("dev%d", i%5), Start: at, End: at + sim.Time(i%7)*100,
			Value: float64(i) / 4,
		}
	}
	return out
}

// TestMergeConcatenatesInOrder merges jobs of sizes around the segment
// boundaries into a session that also records spans of its own, and checks
// that Spans, Series, ByCategory and ExportParaver match a tracer that got
// the same spans through Add alone.
func TestMergeConcatenatesInOrder(t *testing.T) {
	session, flat := New(sim.NewEngine()), New(sim.NewEngine())
	for k, n := range []int{1, 7, 8, 9, 0, 300, 1024, 2100} {
		own := Span{Name: fmt.Sprintf("session%d", k), Category: "task", Resource: "fleet", Start: sim.Time(k)}
		session.Add(own)
		flat.Add(own)
		job := New(sim.NewEngine())
		for _, s := range jobSpans(k, n) {
			job.Add(s)
			flat.Add(s)
		}
		job.Count("jobs", 1)
		flat.Count("jobs", 1)
		session.Merge(job)
	}
	got, want := session.Spans(), flat.Spans()
	if len(got) != len(want) {
		t.Fatalf("merged %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, cat := range []string{"task", "power", "queue", "hedge", "none"} {
		gx, gy := session.Series(cat)
		wx, wy := flat.Series(cat)
		if fmt.Sprint(gx, gy) != fmt.Sprint(wx, wy) {
			t.Fatalf("Series(%q) differs after merge", cat)
		}
	}
	if g, w := fmt.Sprint(session.ByCategory()), fmt.Sprint(flat.ByCategory()); g != w {
		t.Fatalf("ByCategory = %s, want %s", g, w)
	}
	if g, w := session.ExportParaver(), flat.ExportParaver(); g != w {
		t.Fatal("ExportParaver differs after merge")
	}
}

// TestMergedTracerKeepsRecording checks that spans a tracer records after
// it was merged stay out of the session, even when they land in the spare
// capacity of a segment the session shares, and that the session's own
// later spans never overwrite them.
func TestMergedTracerKeepsRecording(t *testing.T) {
	session := New(sim.NewEngine())
	job := New(sim.NewEngine())
	for _, s := range jobSpans(1, 10) { // 8 + 2 of a 16-span segment
		job.Add(s)
	}
	session.Merge(job)
	for _, s := range jobSpans(2, 40) {
		job.Add(s)
	}
	session.Add(Span{Name: "after", Category: "task"})
	got := session.Spans()
	if len(got) != 11 || got[10].Name != "after" {
		t.Fatalf("session holds %d spans (last %q), want the 10 merged plus its own", len(got), got[len(got)-1].Name)
	}
	for i, s := range jobSpans(1, 10) {
		if got[i] != s {
			t.Fatalf("merged span %d = %+v, want %+v", i, got[i], s)
		}
	}
	want := append(jobSpans(1, 10), jobSpans(2, 40)...)
	jobGot := job.Spans()
	if len(jobGot) != len(want) {
		t.Fatalf("job holds %d spans, want %d", len(jobGot), len(want))
	}
	for i := range want {
		if jobGot[i] != want[i] {
			t.Fatalf("job span %d = %+v, want %+v", i, jobGot[i], want[i])
		}
	}
}

// TestSegmentsNeverRegrow checks that recording never moves stored spans
// and that segment capacity stays bounded.
func TestSegmentsNeverRegrow(t *testing.T) {
	tr := New(sim.NewEngine())
	tr.Add(Span{Name: "first"})
	first := &tr.View()[0][0]
	for i := 0; i < 5000; i++ {
		tr.Add(Span{Name: "x"})
	}
	view := tr.View()
	if &view[0][0] != first {
		t.Fatal("the first segment was reallocated")
	}
	for i, sg := range view {
		if cap(sg) > seg.MaxSegment {
			t.Fatalf("segment %d has capacity %d > %d", i, cap(sg), seg.MaxSegment)
		}
	}
}

// TestViewIsASnapshot checks that a view shares the recorded spans but
// never sees spans recorded or merged after it was taken, and that
// writing into a slice Spans returned leaves the tracer unchanged.
func TestViewIsASnapshot(t *testing.T) {
	tr := New(sim.NewEngine())
	for _, s := range jobSpans(1, 20) {
		tr.Add(s)
	}
	view := tr.View()
	copied := tr.Spans()
	copied[0].Name = "mutated"
	for _, s := range jobSpans(2, 30) {
		tr.Add(s)
	}
	job := New(sim.NewEngine())
	job.Add(Span{Name: "merged"})
	tr.Merge(job)

	var flat []Span
	for _, sg := range view {
		flat = append(flat, sg...)
	}
	want := jobSpans(1, 20)
	if len(flat) != len(want) {
		t.Fatalf("view holds %d spans, want %d", len(flat), len(want))
	}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("view span %d = %+v, want %+v", i, flat[i], want[i])
		}
	}
	if got := tr.Spans(); len(got) != 51 || got[0] != want[0] {
		t.Fatalf("tracer holds %d spans starting %+v after the caller wrote into a copy", len(got), got[0])
	}
}

// TestConcurrentMergeWhileRecording runs job tracers that keep recording
// after they merged, while a sibling goroutine per job merges it into a
// side tracer concurrently and readers walk both. Run under -race.
func TestConcurrentMergeWhileRecording(t *testing.T) {
	session, side := New(sim.NewEngine()), New(sim.NewEngine())
	const jobs, perJob = 6, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = session.Spans()
				_, _ = session.Series("power")
				_ = session.ByCategory()
				_ = side.Spans()
			}
		}()
	}
	for k := 0; k < jobs; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			job := New(sim.NewEngine())
			recorded := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for m := 0; m < 100; m++ {
					select {
					case <-recorded:
						return
					default:
						side.Merge(job)
					}
				}
			}()
			for i, s := range jobSpans(k, perJob) {
				job.Add(s)
				if i%50 == 49 {
					session.Merge(job)
				}
			}
			close(recorded)
			_ = job.Spans()
		}(k)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	// Job k merged its growing prefix 6 times: 50 + 100 + ... + 300 spans.
	if got, want := len(session.Spans()), jobs*(50+100+150+200+250+300); got != want {
		t.Fatalf("session holds %d spans, want %d", got, want)
	}
}

// BenchmarkTracerMerge records one job-sized trace (768 spans: a queue,
// task and two power samples for each of 192 tasks) and merges it into a
// session tracer; the session restarts every 64 jobs to bound memory.
func BenchmarkTracerMerge(b *testing.B) {
	spans := jobSpans(3, 768)
	b.ReportAllocs()
	session := New(sim.NewEngine())
	for i := 0; i < b.N; i++ {
		if i%64 == 63 {
			session = New(sim.NewEngine())
		}
		job := New(sim.NewEngine())
		for _, s := range spans {
			job.Add(s)
		}
		session.Merge(job)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(spans)), "ns/span")
}
