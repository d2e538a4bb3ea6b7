package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"legato/internal/sim"
	"legato/internal/trace"
)

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

// promEscaper escapes label values per the exposition format.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promName normalizes a registry metric name into a legal Prometheus
// metric name: the "legato_" namespace prefix, with every character
// outside [a-zA-Z0-9_:] mapped to '_' (registry metrics use dashes:
// "tasks-completed" → "legato_tasks_completed").
func promName(metric string) string {
	var sb strings.Builder
	sb.WriteString("legato_")
	for _, r := range metric {
		switch {
		// Digits are legal anywhere here because of the namespace prefix.
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == ':':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// PrometheusText renders a monitor.Registry snapshot (scope → metric →
// value) in the Prometheus text exposition format. Registry scopes
// follow the "kind/name" convention ("job/ingest", "device/recs0/ms3");
// the kind becomes the scope label and the remainder the name label.
// Output is fully sorted (metric, then labels), so two snapshots of the
// same state render byte-identically.
func PrometheusText(snap map[string]map[string]float64) string {
	type sample struct {
		labels string
		value  float64
	}
	families := make(map[string][]sample)
	for scope, metrics := range snap {
		kind, name := scope, ""
		if i := strings.IndexByte(scope, '/'); i >= 0 {
			kind, name = scope[:i], scope[i+1:]
		}
		labels := fmt.Sprintf(`scope=%q`, promEscaper.Replace(kind))
		if name != "" {
			labels += fmt.Sprintf(`,name=%q`, promEscaper.Replace(name))
		}
		for metric, v := range metrics {
			fam := promName(metric)
			families[fam] = append(families[fam], sample{labels: labels, value: v})
		}
	}
	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, fam := range names {
		samples := families[fam]
		sort.Slice(samples, func(i, j int) bool { return samples[i].labels < samples[j].labels })
		fmt.Fprintf(&sb, "# TYPE %s gauge\n", fam)
		for _, s := range samples {
			fmt.Fprintf(&sb, "%s{%s} %s\n", fam, s.labels,
				strconv.FormatFloat(s.value, 'g', -1, 64))
		}
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Chrome trace_event JSON
// ---------------------------------------------------------------------------

// usec converts virtual time to trace_event microseconds.
func usec(t sim.Time) float64 { return float64(t) / 1e3 }

// ChromeTrace renders tracer spans (and optional counters) as Chrome
// trace_event JSON (the "JSON object format" chrome://tracing and
// Perfetto load directly; timestamps and durations in microseconds),
// indented by one space. Each span resource becomes a named thread of
// pid 1 (sorted for stable tids); intervals become complete ("X")
// events, zero-width markers become instants ("i"), and value-carrying
// samples (e.g. the "power" fleet-draw series) become counter ("C")
// tracks so the draw-vs-time curve renders as a graph. Tracer counters
// land in otherData. A NaN or infinite value is an error.
func ChromeTrace(spans []trace.Span, counters map[string]float64) ([]byte, error) {
	tids := make(map[string]int)
	for i := range spans {
		tids[spans[i].Resource] = 0
	}
	a := jsonAppender{buf: make([]byte, 0, 192*(len(spans)+len(tids)+1))}
	a.open('{')
	a.name(`"traceEvents": `)
	a.open('[')
	a.chromeMeta("process_name", 0, "legato session")
	for i, r := range sortedKeys(tids) {
		tids[r] = i + 1
		a.chromeMeta("thread_name", i+1, r)
	}
	for i := range spans {
		s := &spans[i]
		a.elem()
		a.open('{')
		a.name(`"name": `)
		a.str(s.Name)
		if s.Category != "" {
			a.name(`"cat": `)
			a.str(s.Category)
		}
		switch {
		case s.Start == s.End && s.Value != 0:
			// Telemetry sample → counter track named by the span.
			a.chromeHead("C", s.Start, 0, tids[s.Resource])
			a.name(`"args": `)
			a.open('{')
			a.key(s.Category)
			a.float(s.Value)
			a.close('}')
		case s.Start == s.End:
			a.chromeHead("i", s.Start, 0, tids[s.Resource])
			a.name(`"s": `)
			a.str("t")
		default:
			a.chromeHead("X", s.Start, s.End-s.Start, tids[s.Resource])
			if s.Value != 0 {
				a.name(`"args": `)
				a.open('{')
				a.name(`"value": `)
				a.float(s.Value)
				a.close('}')
			}
		}
		a.close('}')
	}
	a.close(']')
	a.name(`"displayTimeUnit": `)
	a.str("ms")
	if len(counters) > 0 {
		a.name(`"otherData": `)
		a.floatMap(counters)
	}
	a.close('}')
	if a.err != nil {
		return nil, a.err
	}
	return a.buf, nil
}

// chromeHead appends the members every trace event carries after its
// name and category: phase, timestamp, duration (complete events only),
// pid and tid.
func (a *jsonAppender) chromeHead(ph string, ts, dur sim.Time, tid int) {
	a.name(`"ph": `)
	a.str(ph)
	a.name(`"ts": `)
	a.float(usec(ts))
	if dur != 0 {
		a.name(`"dur": `)
		a.float(usec(dur))
	}
	a.name(`"pid": `)
	a.int(1)
	a.name(`"tid": `)
	a.int(int64(tid))
}

// chromeMeta appends one metadata ("M") event naming the process or a
// thread.
func (a *jsonAppender) chromeMeta(name string, tid int, value string) {
	a.elem()
	a.open('{')
	a.name(`"name": `)
	a.str(name)
	a.name(`"ph": `)
	a.str("M")
	a.name(`"ts": `)
	a.int(0)
	a.name(`"pid": `)
	a.int(1)
	a.name(`"tid": `)
	a.int(int64(tid))
	a.name(`"args": `)
	a.open('{')
	a.name(`"name": `)
	a.str(value)
	a.close('}')
	a.close('}')
}

// ---------------------------------------------------------------------------
// Per-task timeline breakdown
// ---------------------------------------------------------------------------

// TaskTimeline is the per-task breakdown derived from one session's
// spans: when the task was queued, when its committed execution ran and
// where, how long it waited, how often it re-ran, and how much
// speculative (hedge) execution overlapped it.
type TaskTimeline struct {
	Name   string `json:"name"`
	Device string `json:"device,omitempty"`
	// QueuedAt is when the task entered the dependence graph ("queue"
	// span); Start/End bound the last committed execution.
	QueuedAt sim.Time `json:"queued_at"`
	Start    sim.Time `json:"start"`
	End      sim.Time `json:"end"`
	// QueueWait = Start − QueuedAt: dependence stalls plus placement
	// parking (core or watt admission).
	QueueWait sim.Time `json:"queue_wait"`
	Exec      sim.Time `json:"exec"`
	// Executions counts committed runs ("task" spans); Retries counts
	// re-queues after failures or corrupted outputs ("failure" spans).
	Executions int `json:"executions"`
	Retries    int `json:"retries"`
	// HedgeOverlap totals the time speculative replicas raced this task
	// (duration of resolved "hedge" spans).
	HedgeOverlap sim.Time `json:"hedge_overlap,omitempty"`
	// Shed marks a task skipped by graceful deadline degradation; it
	// never executed.
	Shed bool `json:"shed,omitempty"`
}

// Latency is the queued-to-committed span of the task.
func (t TaskTimeline) Latency() sim.Time {
	if t.End > t.QueuedAt {
		return t.End - t.QueuedAt
	}
	return 0
}

// Timelines derives the per-task breakdown from tracer spans. Task names
// are unique within a job; a session that reuses a task name across jobs
// merges those rows (timestamps are job-relative virtual time, so
// cross-job rows are indicative, not additive). Rows sort by name.
func Timelines(spans []trace.Span) []TaskTimeline {
	byName := make(map[string]*TaskTimeline)
	get := func(name string) *TaskTimeline {
		tl, ok := byName[name]
		if !ok {
			tl = &TaskTimeline{Name: name}
			byName[name] = tl
		}
		return tl
	}
	for _, s := range spans {
		switch s.Category {
		case "queue":
			tl := get(s.Name)
			if tl.QueuedAt == 0 || s.Start < tl.QueuedAt {
				tl.QueuedAt = s.Start
			}
		case "task":
			tl := get(s.Name)
			tl.Executions++
			tl.Device, tl.Start, tl.End = s.Resource, s.Start, s.End
		case "failure":
			if task := s.Resource; task != "" && strings.HasPrefix(s.Name, task+"#retry") {
				get(task).Retries++
			}
		case "hedge":
			if s.End > s.Start {
				// Resolved race: "<task> hedge won|lost on <device>".
				if i := strings.Index(s.Name, " hedge "); i > 0 {
					get(s.Name[:i]).HedgeOverlap += s.End - s.Start
				}
			}
		case "deadline":
			if task, ok := strings.CutSuffix(s.Name, "#shed"); ok {
				tl := get(task)
				tl.Shed = true
				tl.End = s.Start
			}
		}
	}
	out := make([]TaskTimeline, 0, len(byName))
	for _, tl := range byName {
		if tl.Executions > 0 {
			tl.QueueWait = tl.Start - tl.QueuedAt
			tl.Exec = tl.End - tl.Start
		}
		out = append(out, *tl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TopSlowest returns the n timelines with the largest queued-to-commit
// latency, slowest first (name-ordered among equals); shed tasks sort by
// time spent queued before shedding.
func TopSlowest(tls []TaskTimeline, n int) []TaskTimeline {
	out := append([]TaskTimeline(nil), tls...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Latency() > out[j].Latency() })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TimelineTable renders timelines as an aligned operator table.
func TimelineTable(tls []TaskTimeline) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %-14s %10s %10s %10s %5s %5s %10s\n",
		"task", "device", "queued-s", "wait-s", "exec-s", "runs", "retry", "hedge-s")
	for _, tl := range tls {
		if tl.Shed {
			fmt.Fprintf(&sb, "%-24s %-14s %10.4f %10s %10s %5s %5d %10s\n",
				tl.Name, "(shed)", sim.ToSeconds(tl.QueuedAt), "-", "-", "-", tl.Retries, "-")
			continue
		}
		fmt.Fprintf(&sb, "%-24s %-14s %10.4f %10.4f %10.4f %5d %5d %10.4f\n",
			tl.Name, tl.Device, sim.ToSeconds(tl.QueuedAt), sim.ToSeconds(tl.QueueWait),
			sim.ToSeconds(tl.Exec), tl.Executions, tl.Retries, sim.ToSeconds(tl.HedgeOverlap))
	}
	return sb.String()
}

// DeviceUtilization sums committed execution time per device from "task"
// spans and returns it with the session makespan (the latest committed
// end over any job's clock).
func DeviceUtilization(spans []trace.Span) (busy map[string]sim.Time, makespan sim.Time) {
	busy = make(map[string]sim.Time)
	for _, s := range spans {
		if s.Category != "task" {
			continue
		}
		busy[s.Resource] += s.End - s.Start
		if s.End > makespan {
			makespan = s.End
		}
	}
	return busy, makespan
}

// ---------------------------------------------------------------------------
// Session dump (the legato-trace interchange format)
// ---------------------------------------------------------------------------

// SessionDump is the self-contained export of one session: every merged
// tracer span and counter, the full registry snapshot, and (when the
// session recorded one) the ordered event log. legato-trace loads this
// and converts to any exporter format.
type SessionDump struct {
	Name     string                        `json:"name,omitempty"`
	Spans    []trace.Span                  `json:"spans"`
	Counters map[string]float64            `json:"counters,omitempty"`
	Metrics  map[string]map[string]float64 `json:"metrics,omitempty"`
	Events   []Event                       `json:"events,omitempty"`
}

// Encode writes the dump as JSON indented by one space, ending in a
// newline — the bytes an encoding/json Encoder with SetIndent("", " ")
// writes for it. A NaN or infinite value is an error and writes nothing.
func (d *SessionDump) Encode(w io.Writer) error {
	v := SessionView{
		Name:     d.Name,
		Spans:    [][]trace.Span{d.Spans},
		Counters: d.Counters,
		Metrics:  d.Metrics,
		Events:   [][]Event{d.Events},
	}
	return v.encode(w, d.Spans == nil)
}

// SessionView is a SessionDump whose spans and events stay in the
// segments their stores keep them in (trace.Tracer.View,
// Collector.View), so encoding copies neither.
type SessionView struct {
	Name     string
	Spans    [][]trace.Span
	Counters map[string]float64
	Metrics  map[string]map[string]float64
	Events   [][]Event
}

// Encode writes the view in one streaming pass, in chunks of about
// 32 KB: the bytes SessionDump.Encode writes for the same spans and
// events laid end to end (spans always as an array, never null). A NaN
// or infinite value is an error and writes nothing; a write error stops
// the encoding and is returned.
func (v *SessionView) Encode(w io.Writer) error { return v.encode(w, false) }

func (v *SessionView) encode(w io.Writer, nullSpans bool) error {
	if err := v.checkFinite(); err != nil {
		return err
	}
	a := jsonAppender{buf: make([]byte, 0, flushAt+flushAt/4), w: w}
	a.open('{')
	if v.Name != "" {
		a.name(`"name": `)
		a.str(v.Name)
	}
	a.name(`"spans": `)
	if nullSpans {
		a.null()
	} else {
		a.open('[')
		for _, sg := range v.Spans {
			for i := range sg {
				a.span(&sg[i])
				if a.flush(false) != nil {
					return a.err
				}
			}
		}
		a.close(']')
	}
	if len(v.Counters) > 0 {
		a.name(`"counters": `)
		a.floatMap(v.Counters)
	}
	if len(v.Metrics) > 0 {
		a.name(`"metrics": `)
		a.open('{')
		for _, scope := range sortedKeys(v.Metrics) {
			a.key(scope)
			a.floatMap(v.Metrics[scope])
		}
		a.close('}')
	}
	if hasEvents(v.Events) {
		a.name(`"events": `)
		a.open('[')
		for _, sg := range v.Events {
			for i := range sg {
				a.event(&sg[i])
				if a.flush(false) != nil {
					return a.err
				}
			}
		}
		a.close(']')
	}
	a.close('}')
	a.buf = append(a.buf, '\n')
	return a.flush(true)
}

// checkFinite finds the first float JSON cannot carry before anything is
// written, so a rejected dump leaves the writer untouched.
func (v *SessionView) checkFinite() error {
	for _, sg := range v.Spans {
		for i := range sg {
			if err := finite(sg[i].Value); err != nil {
				return err
			}
		}
	}
	for _, f := range v.Counters {
		if err := finite(f); err != nil {
			return err
		}
	}
	for _, m := range v.Metrics {
		for _, f := range m {
			if err := finite(f); err != nil {
				return err
			}
		}
	}
	for _, sg := range v.Events {
		for i := range sg {
			if err := finite(sg[i].Value); err != nil {
				return err
			}
		}
	}
	return nil
}

func hasEvents(segs [][]Event) bool {
	for _, sg := range segs {
		if len(sg) > 0 {
			return true
		}
	}
	return false
}

// span appends a trace.Span with its Go field names, as trace.Span has
// no JSON tags.
func (a *jsonAppender) span(s *trace.Span) {
	a.elem()
	a.open('{')
	a.name(`"Name": `)
	a.str(s.Name)
	a.name(`"Category": `)
	a.str(s.Category)
	a.name(`"Resource": `)
	a.str(s.Resource)
	a.name(`"Start": `)
	a.int(int64(s.Start))
	a.name(`"End": `)
	a.int(int64(s.End))
	a.name(`"Value": `)
	a.float(s.Value)
	a.close('}')
}

// event appends an Event per its JSON tags, Kind by name.
func (a *jsonAppender) event(e *Event) {
	a.elem()
	a.open('{')
	a.name(`"seq": `)
	a.uint(e.Seq)
	a.name(`"at": `)
	a.int(int64(e.At))
	a.name(`"kind": `)
	a.str(e.Kind.String())
	if e.Job != "" {
		a.name(`"job": `)
		a.str(e.Job)
	}
	if e.Task != "" {
		a.name(`"task": `)
		a.str(e.Task)
	}
	if e.Device != "" {
		a.name(`"device": `)
		a.str(e.Device)
	}
	if e.Value != 0 {
		a.name(`"value": `)
		a.float(e.Value)
	}
	if e.Detail != "" {
		a.name(`"detail": `)
		a.str(e.Detail)
	}
	a.close('}')
}

// DecodeSession reads a dump written by Encode.
func DecodeSession(r io.Reader) (*SessionDump, error) {
	var d SessionDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("obs: decoding session dump: %w", err)
	}
	return &d, nil
}
