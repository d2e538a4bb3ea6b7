package legato

// Tests for the unified observability layer: the session event bus
// surfaced through WithObserver / Events / EventLog, the determinism of
// the ordered event log on serialized sessions, and the exported session
// artifacts (Chrome trace_event JSON, Prometheus text, session dump).

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"legato/internal/faults"
	"legato/internal/ft"
	"legato/internal/hw"
	"legato/internal/obs"
	"legato/internal/power"
)

// observedSessionCap probes the cloud platform's peak draw once so the
// observability sessions run under real cap pressure.
func observedSessionCap(t testing.TB) float64 {
	t.Helper()
	probe, err := NewSystem(WithPlatform(CloudPlatform))
	if err != nil {
		t.Fatal(err)
	}
	capW := 0.6 * float64(power.FleetPeakWatts(probe.Devices()))
	if err := probe.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	return capW
}

// buildObservedJob fills a job with two four-stage chains of wide tasks
// (stressing admission and the cap) plus a deadline-bearing report task
// that the degraded session sheds.
func buildObservedJob(job *Job) error {
	var outs []DataHandle
	for c := 0; c < 2; c++ {
		prev := job.Data(fmt.Sprintf("c%d/in", c), 4096)
		for s := 0; s < 4; s++ {
			next := job.Data(fmt.Sprintf("c%d/s%d", c, s), 4096)
			if err := job.Task(fmt.Sprintf("c%d/stage%d", c, s)).
				Gops(400).Cores(8).In(prev).Out(next).Submit(); err != nil {
				return err
			}
			prev = next
		}
		outs = append(outs, prev)
	}
	return job.Task("report").Gops(40).Cores(1).In(outs...).
		Deadline(8 * time.Second).Submit()
}

// runObservedSession runs a serialized (one worker, jobs awaited one at
// a time) faulty, hedged, power-capped two-job session and returns the
// system for inspection. Serialization plus the fixed fault seed makes
// the event stream fully deterministic.
func runObservedSession(t testing.TB, capW float64, extra ...Option) *System {
	t.Helper()
	opts := append([]Option{
		WithPlatform(CloudPlatform),
		WithPolicy(MinTime),
		WithWorkers(1),
		WithPowerCap(capW),
		WithFaults(faults.Plan{
			DegradeMTBF:     ft.MTBFModel{hw.CPUx86: 0.05},
			DegradeTo:       1.0,
			DegradeSlowdown: 6.0,
			Seed:            7,
		}),
		WithHedging(HedgePolicy{Multiplier: 1.5}),
		WithDeadlineMode(DeadlineShed),
	}, extra...)
	sys, err := NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for n := 0; n < 2; n++ {
		job, err := sys.NewJob(fmt.Sprintf("render-%d", n))
		if err != nil {
			t.Fatal(err)
		}
		if err := buildObservedJob(job); err != nil {
			t.Fatal(err)
		}
		if _, err := job.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestEventLogDeterministicSerialized is the acceptance witness for the
// event stream: two runs of the same serialized seeded session must
// produce byte-identical ordered event logs.
func TestEventLogDeterministicSerialized(t *testing.T) {
	capW := observedSessionCap(t)
	run := func() string {
		sys := runObservedSession(t, capW, WithEventLog())
		defer sys.Close(context.Background())
		return obs.FormatLog(sys.EventLog())
	}
	first := run()
	if first == "" {
		t.Fatal("event log is empty")
	}
	for _, kind := range []EventKind{
		EvTaskQueued, EvTaskPlaced, EvTaskStarted, EvTaskCompleted,
		EvPowerAdmitted, EvFaultInjected, EvHedgeArmed, EvHedgeLaunched,
		EvDeadlineMissed, EvTaskShed,
	} {
		if !strings.Contains(first, kind.String()) {
			t.Fatalf("event log never saw %v:\n%s", kind, first)
		}
	}
	second := run()
	if first != second {
		t.Fatalf("event log not byte-identical across runs:\n--- first\n%s--- second\n%s", first, second)
	}
}

// TestExportSessionGolden pins the exported dump of the serialized seeded
// session — merged trace spans in merge order, counters, registry and
// event log — to a digest captured before the trace store was segmented.
func TestExportSessionGolden(t *testing.T) {
	sys := runObservedSession(t, observedSessionCap(t), WithEventLog())
	defer sys.Close(context.Background())
	var buf bytes.Buffer
	if err := sys.ExportSession(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/export_session.sha256")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != strings.TrimSpace(string(want)) {
		t.Fatalf("session dump digest %s, want %s", got, strings.TrimSpace(string(want)))
	}
}

// TestSystemEventsChannel exercises the bounded subscription surface:
// events flow while jobs run, nothing is dropped with an attentive
// consumer, and Close ends the feed.
func TestSystemEventsChannel(t *testing.T) {
	sys, err := NewSystem(WithPolicy(MinTime), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	feed := sys.Events()
	if again := sys.Events(); again != feed {
		t.Fatal("Events must return one shared channel")
	}
	counts := make(map[EventKind]int)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for e := range feed {
			counts[e.Kind]++
		}
	}()
	ctx := context.Background()
	for n := 0; n < 2; n++ {
		job, err := sys.NewJob(fmt.Sprintf("job%d", n))
		if err != nil {
			t.Fatal(err)
		}
		if err := buildThroughputJob(job); err != nil {
			t.Fatal(err)
		}
		if _, err := job.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Close(ctx); err != nil {
		t.Fatal(err)
	}
	<-drained
	wantTasks := 2 * 4 * 5
	if counts[EvTaskCompleted] != wantTasks {
		t.Fatalf("feed saw %d completions, want %d (counts: %v)", counts[EvTaskCompleted], wantTasks, counts)
	}
	if counts[EvTaskQueued] != wantTasks || counts[EvTaskStarted] != wantTasks || counts[EvTaskPlaced] != wantTasks {
		t.Fatalf("lifecycle counts inconsistent: %v", counts)
	}
	if got := sys.EventsDropped(); got != 0 {
		t.Fatalf("attentive consumer dropped %d events", got)
	}
}

// TestWithObserverInline registers a synchronous observer and checks it
// sees the global sequence exactly once per event.
func TestWithObserverInline(t *testing.T) {
	var col obs.Collector
	sys, err := NewSystem(WithPolicy(MinTime), WithWorkers(1), WithObserver(col.Observe))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	job, err := sys.NewJob("solo")
	if err != nil {
		t.Fatal(err)
	}
	if err := buildThroughputJob(job); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	events := col.Events()
	if len(events) == 0 {
		t.Fatal("observer saw nothing")
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has sequence %d — stream not gapless", i, e.Seq)
		}
		if e.Job != "solo" {
			t.Fatalf("event %d attributed to job %q", i, e.Job)
		}
	}
}

// TestExportSessionArtifacts runs the observed session, exports the
// dump, and validates every derived artifact: round-trip decode, valid
// Chrome JSON, Prometheus exposition, timeline derivation.
func TestExportSessionArtifacts(t *testing.T) {
	sys := runObservedSession(t, observedSessionCap(t), WithEventLog())
	defer sys.Close(context.Background())

	var buf bytes.Buffer
	if err := sys.ExportSession(&buf); err != nil {
		t.Fatal(err)
	}
	dump, err := obs.DecodeSession(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Spans) == 0 || len(dump.Events) == 0 || len(dump.Metrics) == 0 {
		t.Fatalf("dump incomplete: %d spans, %d events, %d metric scopes",
			len(dump.Spans), len(dump.Events), len(dump.Metrics))
	}

	chrome, err := obs.ChromeTrace(dump.Spans, dump.Counters)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(chrome) {
		t.Fatal("chrome trace is not valid JSON")
	}
	var ct struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &ct); err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) < len(dump.Spans) {
		t.Fatalf("chrome trace has %d events for %d spans", len(ct.TraceEvents), len(dump.Spans))
	}

	prom := obs.PrometheusText(dump.Metrics)
	for _, frag := range []string{"legato_tasks_completed", `scope="job"`, `scope="device"`} {
		if !strings.Contains(prom, frag) {
			t.Fatalf("prometheus exposition missing %q:\n%s", frag, prom)
		}
	}

	tls := obs.Timelines(dump.Spans)
	if len(tls) == 0 {
		t.Fatal("no task timelines derived")
	}
	sawExec := false
	for _, tl := range tls {
		if tl.Executions > 0 && tl.Exec > 0 {
			sawExec = true
		}
	}
	if !sawExec {
		t.Fatal("timelines carry no execution intervals")
	}
}

// limitWriter keeps the first limit bytes it is handed and fails the
// write that would pass the limit; it records any write after that.
type limitWriter struct {
	bytes.Buffer
	limit      int
	failed     bool
	lateWrites int
}

var errLimit = errors.New("writer limit reached")

func (w *limitWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.lateWrites++
		return 0, errLimit
	}
	if room := w.limit - w.Len(); len(p) > room {
		w.Buffer.Write(p[:room])
		w.failed = true
		return room, errLimit
	}
	return w.Buffer.Write(p)
}

// TestExportSessionWriterContract checks what ExportSession promises:
// exports read the stores, not the copies EventLog and Spans hand out; a
// write error (at the first byte, inside the spans, inside the events)
// is returned and ends the export; a writer may call back into the
// System, since no session lock is held across Write; and the dump
// decodes and re-encodes to the same bytes.
func TestExportSessionWriterContract(t *testing.T) {
	sys := runObservedSession(t, observedSessionCap(t), WithEventLog())
	defer sys.Close(context.Background())
	var full bytes.Buffer
	if err := sys.ExportSession(&full); err != nil {
		t.Fatal(err)
	}
	// Writing into the copies EventLog and Spans return must not reach
	// the session's stores.
	sys.EventLog()[0].Detail = "mutated"
	sys.Tracer().Spans()[0].Name = "mutated"
	var again bytes.Buffer
	if err := sys.ExportSession(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), full.Bytes()) {
		t.Fatal("writing into EventLog's or Spans' result changed the next export")
	}
	spansAt := bytes.Index(full.Bytes(), []byte(`"spans": [`))
	eventsAt := bytes.Index(full.Bytes(), []byte(`"events": [`))
	if spansAt < 0 || eventsAt < 0 || full.Len()-1000 <= eventsAt || full.Len() < 40<<10 {
		t.Fatalf("dump of %d bytes (spans at %d, events at %d) is too small to fail inside its events on a later write",
			full.Len(), spansAt, eventsAt)
	}
	for _, limit := range []int{0, (spansAt + eventsAt) / 2, full.Len() - 1000} {
		w := limitWriter{limit: limit}
		if err := sys.ExportSession(&w); !errors.Is(err, errLimit) {
			t.Fatalf("limit %d: error %v, want the writer's", limit, err)
		}
		if w.lateWrites != 0 {
			t.Fatalf("limit %d: %d writes after the writer failed", limit, w.lateWrites)
		}
		if !bytes.Equal(w.Bytes(), full.Bytes()[:limit]) {
			t.Fatalf("limit %d: the bytes written differ from the dump's prefix", limit)
		}
	}

	reentrant := writerFunc(func(p []byte) (int, error) {
		if len(sys.EventLog()) == 0 || sys.Stats().TasksCompleted == 0 {
			t.Error("EventLog or Stats empty inside Write")
		}
		return len(p), nil
	})
	done := make(chan error, 1)
	go func() { done <- sys.ExportSession(reentrant) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("ExportSession deadlocked with a writer calling EventLog and Stats")
	}

	dump, err := obs.DecodeSession(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	again.Reset()
	if err := dump.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), full.Bytes()) {
		t.Fatal("decoding and re-encoding the dump changed its bytes")
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestExportSessionWhileRunning exports and reads the event log while
// jobs publish events and merge traces on two workers. Run under -race.
func TestExportSessionWhileRunning(t *testing.T) {
	sys, err := NewSystem(WithPolicy(MinTime), WithWorkers(2), WithEventLog())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := sys.ExportSession(&buf); err != nil {
				t.Error(err)
				return
			}
			if _, err := obs.DecodeSession(&buf); err != nil {
				t.Error(err)
				return
			}
			_ = sys.EventLog()
		}
	}()
	ctx := context.Background()
	var jobs []*Job
	for n := 0; n < 4; n++ {
		job, err := sys.NewJob(fmt.Sprintf("job%d", n))
		if err != nil {
			t.Fatal(err)
		}
		if err := buildThroughputJob(job); err != nil {
			t.Fatal(err)
		}
		if err := job.Start(ctx); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		if _, err := job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-readerDone
	var buf bytes.Buffer
	if err := sys.ExportSession(&buf); err != nil {
		t.Fatal(err)
	}
	dump, err := obs.DecodeSession(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) != len(sys.EventLog()) || len(dump.Spans) == 0 {
		t.Fatalf("final dump holds %d events (log %d) and %d spans", len(dump.Events), len(sys.EventLog()), len(dump.Spans))
	}
}
