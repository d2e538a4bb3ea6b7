// Package trace provides the execution-tracing facility of the LEGaTO
// runtime layer: spans over virtual time (task executions, checkpoints,
// migrations), named counters, and a Paraver-flavoured text export —
// the trace format of the BSC tool family that accompanies OmpSs.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"legato/internal/seg"
	"legato/internal/sim"
)

// Span is one traced interval.
type Span struct {
	Name     string
	Category string
	Resource string // device/node the span ran on
	Start    sim.Time
	End      sim.Time
	// Value carries a sampled measurement for telemetry spans (e.g. the
	// fleet draw in watts for "power" samples); zero for plain intervals.
	Value float64
}

// Duration returns the span length.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Tracer records spans and counters against an engine's clock. A Tracer is
// safe for concurrent use, so per-job traces can merge into a session
// trace while other jobs are still recording.
//
// Closed spans live in a segmented store (internal/seg), so recording
// never copies earlier spans. Merge adopts the other tracer's segments by
// reference, each clipped to its length and capacity, so neither side
// can append into a segment the other can read.
type Tracer struct {
	mu       sync.Mutex
	eng      *sim.Engine
	spans    seg.Store[Span] // closed spans in completion order
	open     map[int]*Span
	nextID   int
	counters map[string]float64
}

// New creates a tracer.
func New(eng *sim.Engine) *Tracer {
	return &Tracer{eng: eng, open: make(map[int]*Span), counters: make(map[string]float64)}
}

// Begin opens a span and returns its handle.
func (t *Tracer) Begin(name, category, resource string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.open[t.nextID] = &Span{
		Name: name, Category: category, Resource: resource, Start: t.eng.Now(),
	}
	return t.nextID
}

// End closes a span by handle; unknown handles are ignored.
func (t *Tracer) End(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	s.End = t.eng.Now()
	t.spans.Append(*s)
}

// Reserve sizes the span store for n more spans (see seg.Store.Reserve).
func (t *Tracer) Reserve(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans.Reserve(n)
}

// Count adds delta to a named counter.
func (t *Tracer) Count(name string, delta float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters[name] += delta
}

// Counter returns a counter's value.
func (t *Tracer) Counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// Spans returns a copy of the closed spans in completion order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.Copy()
}

// View returns the closed spans recorded so far without copying them:
// segments in completion order, each clipped to its length and capacity
// (see seg.Store.View). Callers must not write through the view; spans
// recorded or merged afterwards never show up in it.
func (t *Tracer) View() [][]Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.View()
}

// Add records an already-closed span with explicit timestamps — the path
// used when task records are replayed into a trace after the fact (a job
// worker observing taskrt completion records).
func (t *Tracer) Add(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans.Append(s)
}

// Counters returns a copy of every named counter.
func (t *Tracer) Counters() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.counters))
	for k, v := range t.counters {
		out[k] = v
	}
	return out
}

// Merge folds another tracer's closed spans and counters into t. Jobs
// record against their own virtual clock; merging preserves their
// job-relative timestamps, so merged spans are comparable per resource,
// not across jobs. The spans are shared, not copied: t takes the other
// tracer's segments clipped to their current length, so spans the other
// tracer records afterwards never show up in t.
func (t *Tracer) Merge(other *Tracer) {
	if other == nil || other == t {
		return
	}
	other.mu.Lock()
	view := other.spans.View()
	counters := make(map[string]float64, len(other.counters))
	for k, v := range other.counters {
		counters[k] = v
	}
	other.mu.Unlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans.Adopt(view)
	for k, v := range counters {
		t.counters[k] += v
	}
}

// Series extracts the sampled values of a telemetry category as (seconds,
// value) points sorted by time — the shape internal/plot charts directly,
// e.g. the fleet draw-vs-time curve from "power" spans.
func (t *Tracer) Series(category string) (xs, ys []float64) {
	t.mu.Lock()
	var spans []Span
	t.spans.Each(func(s *Span) {
		if s.Category == category {
			spans = append(spans, *s)
		}
	})
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		xs = append(xs, sim.ToSeconds(s.Start))
		ys = append(ys, s.Value)
	}
	return xs, ys
}

// ByCategory returns total time per category.
func (t *Tracer) ByCategory() map[string]sim.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]sim.Time)
	t.spans.Each(func(s *Span) { out[s.Category] += s.Duration() })
	return out
}

// ExportParaver renders the spans as Paraver-like state records:
// kind:resource:applTask:start:end:name.
func (t *Tracer) ExportParaver() string {
	return ParaverText(t.Spans(), t.Counters())
}

// ParaverText renders already-extracted spans and counters in the same
// Paraver-like text format as Tracer.ExportParaver — the path used when
// the data comes from an exported session dump rather than a live
// tracer.
func ParaverText(spans []Span, counters map[string]float64) string {
	var sb strings.Builder
	sb.WriteString("#Paraver (legato trace)\n")
	for i, s := range spans {
		fmt.Fprintf(&sb, "1:%s:%d:%d:%d:%s:%s\n",
			s.Resource, i+1, int64(s.Start), int64(s.End), s.Category, s.Name)
	}
	// Counters as event records.
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "2:%s:%g\n", n, counters[n])
	}
	return sb.String()
}

// Summary renders per-category totals.
func (t *Tracer) Summary() string {
	cats := t.ByCategory()
	names := make([]string, 0, len(cats))
	for n := range cats {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %14s\n", "category", "total time")
	for _, n := range names {
		fmt.Fprintf(&sb, "%-20s %14v\n", n, cats[n])
	}
	return sb.String()
}
