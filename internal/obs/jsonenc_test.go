package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"sort"
	"testing"

	"legato/internal/sim"
	"legato/internal/trace"
)

// oracleEncode is the reference the appender must match byte for byte:
// the session dump as an encoding/json Encoder with SetIndent("", " ")
// writes it.
func oracleEncode(d *SessionDump) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err := enc.Encode(d)
	return buf.Bytes(), err
}

// fuzzDump builds a session dump from fuzz inputs. The low bits of shape
// pick nil, empty or populated spans, counters, metrics and events, so
// the corpus can reach every omitempty and null rule of the format.
func fuzzDump(name, text string, at int64, v1, v2 float64, kind, shape uint8) *SessionDump {
	d := &SessionDump{Name: name}
	switch {
	case shape&1 != 0:
	case shape&2 != 0:
		d.Spans = []trace.Span{}
	default:
		d.Spans = []trace.Span{
			{Name: text, Category: name, Resource: "dev/" + text, Start: sim.Time(at), End: sim.Time(-at), Value: v1},
			{Name: name, End: sim.Time(at / 3), Value: v2},
			{},
		}
	}
	if shape&4 != 0 {
		d.Counters = map[string]float64{text: v1, name: v2, "zero": 0}
	}
	switch {
	case shape&8 != 0:
		d.Metrics = map[string]map[string]float64{
			text:    {name: v1, "b": v2},
			"empty": {},
			"nil":   nil,
		}
	case shape&16 != 0:
		d.Metrics = map[string]map[string]float64{}
	}
	switch {
	case shape&32 != 0:
	case shape&64 != 0:
		d.Events = []Event{}
	default:
		d.Events = []Event{
			{Seq: uint64(at), At: sim.Time(at), Kind: Kind(kind), Job: text, Task: name, Device: text, Value: v1, Detail: text},
			{Seq: 2, Kind: Kind(kind + 1), Value: v2},
		}
	}
	return d
}

// split cuts s into segments of at most n values, as a segmented store
// would hold it.
func split[T any](s []T, n int) [][]T {
	var out [][]T
	for len(s) > n {
		out = append(out, s[:n:n])
		s = s[n:]
	}
	return append(out, s)
}

// FuzzSessionDumpEncode checks the appender against encoding/json: the
// same bytes for every dump encoding/json accepts, an error exactly when
// it errs, and nothing written on that error. The same dump read from
// segments through a SessionView must encode identically.
func FuzzSessionDumpEncode(f *testing.F) {
	f.Fuzz(func(t *testing.T, name, text string, at int64, v1, v2 float64, kind, shape uint8) {
		d := fuzzDump(name, text, at, v1, v2, kind, shape)
		want, wantErr := oracleEncode(d)
		var got bytes.Buffer
		gotErr := d.Encode(&got)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("appender error %v, encoding/json error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if got.Len() != 0 {
				t.Fatalf("rejected dump wrote %d bytes", got.Len())
			}
			return
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("appender output differs from encoding/json:\n--- got\n%s--- want\n%s", got.Bytes(), want)
		}
		if d.Spans == nil {
			return
		}
		view := SessionView{Name: d.Name, Spans: split(d.Spans, 2), Counters: d.Counters, Metrics: d.Metrics, Events: split(d.Events, 1)}
		var seg bytes.Buffer
		if err := view.Encode(&seg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seg.Bytes(), want) {
			t.Fatalf("segmented view output differs from encoding/json:\n--- got\n%s--- want\n%s", seg.Bytes(), want)
		}
	})
}

// chunkWriter records the size of every Write call.
type chunkWriter struct {
	bytes.Buffer
	writes []int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// bigDump is a session large enough to span many flush chunks.
func bigDump(spans, events int) *SessionDump {
	d := &SessionDump{
		Name:     "legato-session",
		Counters: map[string]float64{"hedges-won": 3, "tasks": float64(spans)},
		Metrics:  map[string]map[string]float64{"job/a": {"energy-J": 2.5e-7}, "power": {"peak-draw-W": 310}},
	}
	for i := 0; i < spans; i++ {
		d.Spans = append(d.Spans, trace.Span{
			Name: "stage", Category: "task", Resource: "gpu0",
			Start: sim.Time(i) * sim.Millisecond, End: sim.Time(i+1) * sim.Millisecond, Value: float64(i) / 7,
		})
	}
	for i := 0; i < events; i++ {
		d.Events = append(d.Events, Event{
			Seq: uint64(i + 1), At: sim.Time(i) * sim.Microsecond, Kind: Kind(i % len(kindNames)),
			Job: "job-a", Task: "stage", Device: "gpu0", Value: float64(i) * 0.25, Detail: "crash",
		})
	}
	return d
}

func TestSessionDumpStreamsInChunks(t *testing.T) {
	d := bigDump(3000, 3000)
	want, err := oracleEncode(d)
	if err != nil {
		t.Fatal(err)
	}
	var w chunkWriter
	if err := d.Encode(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatal("streamed dump differs from encoding/json")
	}
	if len(w.writes) < 4 {
		t.Fatalf("a %d-byte dump arrived in %d writes, want one per ~%d bytes", len(want), len(w.writes), flushAt)
	}
	for i, n := range w.writes[:len(w.writes)-1] {
		if n < flushAt || n > 2*flushAt {
			t.Fatalf("write %d carried %d bytes, want about %d", i, n, flushAt)
		}
	}
}

// failWriter accepts limit bytes, then fails every write.
type failWriter struct {
	limit, n int
}

var errWriterFull = errors.New("writer full")

func (w *failWriter) Write(p []byte) (int, error) {
	if room := w.limit - w.n; len(p) > room {
		w.n += room
		return room, errWriterFull
	}
	w.n += len(p)
	return len(p), nil
}

func TestSessionDumpWriteErrorStops(t *testing.T) {
	d := bigDump(2000, 2000)
	for _, limit := range []int{0, flushAt / 2, 3 * flushAt} {
		w := failWriter{limit: limit}
		if err := d.Encode(&w); !errors.Is(err, errWriterFull) {
			t.Fatalf("limit %d: error %v, want the writer's", limit, err)
		}
	}
	// A writer that takes less than it was handed without saying why.
	short := writerFunc(func(p []byte) (int, error) { return len(p) / 2, nil })
	if err := d.Encode(short); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write: error %v", err)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestSessionDumpRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, d := range map[string]*SessionDump{
			"span":    {Spans: []trace.Span{{Value: bad}}},
			"counter": {Counters: map[string]float64{"c": bad}},
			"metric":  {Metrics: map[string]map[string]float64{"s": {"m": bad}}},
			"event":   {Events: []Event{{Value: bad}}},
		} {
			var buf bytes.Buffer
			if err := d.Encode(&buf); err == nil || buf.Len() != 0 {
				t.Fatalf("%s %v: error %v after %d bytes, want an error and no output", name, bad, err, buf.Len())
			}
		}
	}
}

// chromeEvent and chromeTrace are the struct form of the trace_event
// JSON that ChromeTrace writes; oracleChromeTrace marshals them with
// encoding/json as the reference ChromeTrace must match byte for byte.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent      `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
	OtherData       map[string]float64 `json:"otherData,omitempty"`
}

func oracleChromeTrace(spans []trace.Span, counters map[string]float64) ([]byte, error) {
	resources := make(map[string]int)
	for _, s := range spans {
		resources[s.Resource] = 0
	}
	names := make([]string, 0, len(resources))
	for r := range resources {
		names = append(names, r)
	}
	sort.Strings(names)
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "legato session"},
	}}
	for i, r := range names {
		resources[r] = i + 1
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1,
			Args: map[string]any{"name": r},
		})
	}
	for _, s := range spans {
		tid := resources[s.Resource]
		switch {
		case s.Start == s.End && s.Value != 0:
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.Category, Ph: "C", Ts: usec(s.Start),
				Pid: 1, Tid: tid,
				Args: map[string]any{s.Category: s.Value},
			})
		case s.Start == s.End:
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.Category, Ph: "i", Ts: usec(s.Start),
				Pid: 1, Tid: tid, Scope: "t",
			})
		default:
			ev := chromeEvent{
				Name: s.Name, Cat: s.Category, Ph: "X", Ts: usec(s.Start),
				Dur: usec(s.End - s.Start), Pid: 1, Tid: tid,
			}
			if s.Value != 0 {
				ev.Args = map[string]any{"value": s.Value}
			}
			events = append(events, ev)
		}
	}
	out := chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}
	if len(counters) > 0 {
		out.OtherData = counters
	}
	return json.MarshalIndent(out, "", " ")
}

func TestChromeTraceMatchesEncodingJSON(t *testing.T) {
	edge := []trace.Span{
		{Name: "<b>&</b>", Category: "", Resource: "dev x", Start: 1, End: 1, Value: 1e21},
		{Name: "ctl\x01\t", Category: "power", Resource: "\xff", Start: -5, End: -5, Value: -1e-7},
		{Name: "neg", Category: "task", Resource: "gpu0", Start: 9, End: 3, Value: -0.0},
		{Name: "tiny", Category: "hedge", Resource: "gpu0", Start: 0, End: 1, Value: 9.99e-7},
	}
	cases := []struct {
		name     string
		spans    []trace.Span
		counters map[string]float64
	}{
		{"sample", sampleSpans(), map[string]float64{"hedges-won": 1, "a<b": 0.5}},
		{"none", nil, nil},
		{"empty-counters", sampleSpans(), map[string]float64{}},
		{"edges", edge, map[string]float64{"big": 1e21, "small": 1e-6}},
		{"large", bigDump(500, 0).Spans, nil},
		{"nan", []trace.Span{{Start: 0, End: 1, Value: math.NaN()}}, nil},
		{"inf-counter", sampleSpans(), map[string]float64{"c": math.Inf(1)}},
		{"inf-sample", []trace.Span{{Category: "power", Value: math.Inf(-1)}}, nil},
	}
	for _, c := range cases {
		want, wantErr := oracleChromeTrace(c.spans, c.counters)
		got, gotErr := ChromeTrace(c.spans, c.counters)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: appender error %v, encoding/json error %v", c.name, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: ChromeTrace differs from encoding/json:\n--- got\n%s\n--- want\n%s", c.name, got, want)
		}
	}
}

// BenchmarkSessionDumpEncode encodes a 4000-span, 4000-event session
// dump, reporting throughput and allocations per encode.
func BenchmarkSessionDumpEncode(b *testing.B) {
	d := bigDump(4000, 4000)
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := d.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
