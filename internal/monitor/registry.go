package monitor

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Cell holds one metric's value: a float64 stored as its bit pattern in an
// atomic word, so a writer holding the cell updates it without the
// registry lock. A cell exists only once its metric was first written.
type Cell struct{ bits atomic.Uint64 }

// Add accumulates delta onto the cell (a compare-and-swap loop).
func (c *Cell) Add(delta float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Set overwrites the cell.
func (c *Cell) Set(v float64) { c.bits.Store(math.Float64bits(v)) }

// Load returns the cell's value.
func (c *Cell) Load() float64 { return math.Float64frombits(c.bits.Load()) }

// Registry is a thread-safe counter store for the concurrent job engine:
// per-scope metric accumulators in the spirit of the HEATS telemetry
// module, but fed by runtime hooks instead of polling. Scopes follow a
// "kind/name" convention — "job/<name>" for per-job counters
// (tasks-queued, tasks-running, tasks-completed, energy-J, makespan-s) and
// "device/<id>" for per-device counters (tasks-completed, energy-J,
// busy-s) — though the registry itself is agnostic.
//
// The lock guards only the scope and metric maps. Values live in Cells, so
// a hot writer resolves its cell once with AddCell and adds to it
// lock-free afterwards.
type Registry struct {
	mu     sync.Mutex
	scopes map[string]map[string]*Cell
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{scopes: make(map[string]map[string]*Cell)}
}

// cellLocked returns a metric's cell, creating it (and its scope) at zero.
func (r *Registry) cellLocked(scope, metric string) *Cell {
	m, ok := r.scopes[scope]
	if !ok {
		m = make(map[string]*Cell)
		r.scopes[scope] = m
	}
	c, ok := m[metric]
	if !ok {
		c = new(Cell)
		m[metric] = c
	}
	return c
}

// Add accumulates delta onto a scoped metric.
func (r *Registry) Add(scope, metric string, delta float64) {
	r.AddCell(scope, metric, delta)
}

// AddCell accumulates delta onto a scoped metric and returns its cell;
// later adds through the cell skip the registry lock and map lookups. The
// first write lands under the lock, so no snapshot sees the metric before
// it holds a written value.
func (r *Registry) AddCell(scope, metric string, delta float64) *Cell {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.cellLocked(scope, metric)
	c.Add(delta)
	return c
}

// Set overwrites a scoped metric.
func (r *Registry) Set(scope, metric string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cellLocked(scope, metric).Set(v)
}

// Get returns a scoped metric (zero when never written).
func (r *Registry) Get(scope, metric string) float64 {
	r.mu.Lock()
	c := r.scopes[scope][metric]
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// Scopes lists all scopes in sorted order.
func (r *Registry) Scopes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.scopesLocked()
}

func (r *Registry) scopesLocked() []string {
	out := make([]string, 0, len(r.scopes))
	for s := range r.scopes {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ScopeSnapshot returns a copy of one scope's metrics.
func (r *Registry) ScopeSnapshot(scope string) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return loadAll(r.scopes[scope])
}

func loadAll(cells map[string]*Cell) map[string]float64 {
	out := make(map[string]float64, len(cells))
	for k, c := range cells {
		out[k] = c.Load()
	}
	return out
}

// Snapshot returns a deep copy of every scope's metrics, taken under one
// lock acquisition: the set of metrics is consistent, and exporters can
// walk the copy while live writers keep accumulating.
func (r *Registry) Snapshot() map[string]map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]map[string]float64, len(r.scopes))
	for scope, cells := range r.scopes {
		out[scope] = loadAll(cells)
	}
	return out
}

// Report renders every scope's metrics as an aligned table.
func (r *Registry) Report() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sb strings.Builder
	for _, s := range r.scopesLocked() {
		fmt.Fprintf(&sb, "%s\n", s)
		metrics := make([]string, 0, len(r.scopes[s]))
		for m := range r.scopes[s] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			fmt.Fprintf(&sb, "  %-20s %14.4f\n", m, r.scopes[s][m].Load())
		}
	}
	return sb.String()
}
