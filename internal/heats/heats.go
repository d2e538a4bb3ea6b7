// Package heats implements HEATS, the heterogeneity- and energy-aware
// scheduler of paper Sec. V (Fig. 7, [10]). HEATS "allows customers to
// trade performance vs. energy requirements": it learns per-node
// performance and energy profiles, scores candidate nodes by normalised
// predictions weighted by the client's energy/performance ratio α, places
// each task on the best-fitting node, and periodically re-evaluates
// running tasks, migrating them when a sufficiently better host appears.
package heats

import (
	"fmt"

	"legato/internal/cluster"
	"legato/internal/monitor"
	"legato/internal/sim"
)

// Estimate is the model's prediction for one (task kind, node) pair.
type Estimate struct {
	Seconds float64
	Joules  float64
}

// Model holds learned profiles: task kind → node name → estimate, built in
// the profiling/learning phase of Fig. 7.
type Model struct {
	profiles map[string]map[string]Estimate
}

// NewModel creates an empty model.
func NewModel() *Model {
	return &Model{profiles: make(map[string]map[string]Estimate)}
}

// Learn records the estimate for a task kind on a node.
func (m *Model) Learn(kind, node string, e Estimate) {
	if m.profiles[kind] == nil {
		m.profiles[kind] = make(map[string]Estimate)
	}
	m.profiles[kind][node] = e
}

// Predict returns the estimate for kind on node.
func (m *Model) Predict(kind, node string) (Estimate, bool) {
	e, ok := m.profiles[kind][node]
	return e, ok
}

// ProfileCluster runs the probing phase: for each task kind, estimate
// execution time and dynamic energy on every node from the device models
// (standing in for the "software probing + learning" of Fig. 7).
func ProfileCluster(cl *cluster.Cluster, kinds map[string]*cluster.Task) *Model {
	m := NewModel()
	for kind, proto := range kinds {
		for _, n := range cl.Nodes {
			if n.Dev.Spec.Cores < proto.CPU {
				continue
			}
			secs := sim.ToSeconds(n.Dev.ExecTime(proto.Gops, proto.CPU))
			joules := n.Dev.EnergyFor(proto.Gops, proto.CPU)
			m.Learn(kind, n.Name, Estimate{Seconds: secs, Joules: joules})
		}
	}
	return m
}

// Config parametrises the scheduler.
type Config struct {
	// Alpha weighs energy against performance in [0,1]: 0 = pure
	// performance, 1 = pure energy (the customer requirement).
	Alpha float64
	// ReschedulePeriod is the interval of the migration loop
	// (default 5 s of simulated time; 0 uses the default, negative
	// disables rescheduling).
	ReschedulePeriod sim.Time
	// MigrationGainThreshold is the minimum relative score improvement
	// before a migration is worthwhile (default 0.2).
	MigrationGainThreshold float64
}

// Scheduler is the HEATS control loop.
type Scheduler struct {
	cfg   Config
	eng   *sim.Engine
	cl    *cluster.Cluster
	mon   *monitor.Monitor
	model *Model

	queue   []*cluster.Task
	running map[*cluster.Task]struct{}
	pending int

	// Migrations counts performed migrations.
	Migrations int
	// Placements counts initial placements.
	Placements int
	// lastDone is the completion time of the latest task (the makespan).
	lastDone sim.Time
}

// New creates a scheduler.
func New(eng *sim.Engine, cl *cluster.Cluster, mon *monitor.Monitor, model *Model, cfg Config) *Scheduler {
	if cfg.ReschedulePeriod == 0 {
		cfg.ReschedulePeriod = 5 * sim.Second
	}
	if cfg.MigrationGainThreshold == 0 {
		cfg.MigrationGainThreshold = 0.2
	}
	if cfg.Alpha < 0 {
		cfg.Alpha = 0
	}
	if cfg.Alpha > 1 {
		cfg.Alpha = 1
	}
	return &Scheduler{
		cfg: cfg, eng: eng, cl: cl, mon: mon, model: model,
		running: make(map[*cluster.Task]struct{}),
	}
}

// Submit queues tasks for placement.
func (s *Scheduler) Submit(tasks ...*cluster.Task) {
	for _, t := range tasks {
		t := t
		s.pending++
		prev := t.OnDone
		t.OnDone = func() {
			delete(s.running, t)
			s.pending--
			if s.eng.Now() > s.lastDone {
				s.lastDone = s.eng.Now()
			}
			if prev != nil {
				prev()
			}
			// Freed resources may unblock queued tasks.
			s.schedule()
		}
		s.queue = append(s.queue, t)
	}
	s.schedule()
}

// score returns the weighted, normalised score of running kind on node
// (lower is better), given the min/max over the feasible set.
func score(e Estimate, minT, maxT, minE, maxE, alpha float64) float64 {
	normT, normE := 0.0, 0.0
	if maxT > minT {
		normT = (e.Seconds - minT) / (maxT - minT)
	}
	if maxE > minE {
		normE = (e.Joules - minE) / (maxE - minE)
	}
	return alpha*normE + (1-alpha)*normT
}

// bestNode returns the best feasible node for t and its score; ok=false if
// nothing fits now.
func (s *Scheduler) bestNode(t *cluster.Task, exclude *cluster.Node) (*cluster.Node, float64, bool) {
	type cand struct {
		node *cluster.Node
		est  Estimate
	}
	var cands []cand
	for _, n := range s.cl.Nodes {
		if n == exclude || !n.Fits(t) {
			continue
		}
		if e, ok := s.model.Predict(t.Kind, n.Name); ok {
			cands = append(cands, cand{node: n, est: e})
		}
	}
	if len(cands) == 0 {
		return nil, 0, false
	}
	minT, maxT := cands[0].est.Seconds, cands[0].est.Seconds
	minE, maxE := cands[0].est.Joules, cands[0].est.Joules
	for _, c := range cands[1:] {
		if c.est.Seconds < minT {
			minT = c.est.Seconds
		}
		if c.est.Seconds > maxT {
			maxT = c.est.Seconds
		}
		if c.est.Joules < minE {
			minE = c.est.Joules
		}
		if c.est.Joules > maxE {
			maxE = c.est.Joules
		}
	}
	best := -1
	bestScore := 0.0
	for i, c := range cands {
		sc := score(c.est, minT, maxT, minE, maxE, s.cfg.Alpha)
		if best == -1 || sc < bestScore {
			best, bestScore = i, sc
		}
	}
	return cands[best].node, bestScore, true
}

// schedule places queued tasks (the "scheduling phase ... for the queue of
// all pending tasks").
func (s *Scheduler) schedule() {
	s.mon.Poll()
	var remaining []*cluster.Task
	for _, t := range s.queue {
		n, _, ok := s.bestNode(t, nil)
		if !ok {
			remaining = append(remaining, t)
			continue
		}
		if err := s.cl.Place(t, n); err != nil {
			remaining = append(remaining, t)
			continue
		}
		s.running[t] = struct{}{}
		s.Placements++
	}
	s.queue = remaining
}

// reschedule re-evaluates running tasks and migrates those with a
// sufficiently better host ("when a better fit than the current host of a
// task is found, the scheduler performs a migration").
func (s *Scheduler) reschedule() {
	s.mon.Poll()
	for t := range s.running {
		cur := t.Node()
		if cur == nil || t.Done() {
			continue
		}
		curEst, ok := s.model.Predict(t.Kind, cur.Name)
		if !ok {
			continue
		}
		// Score the current host against alternatives on the remaining work.
		alt, altScore, ok := s.bestNode(t, cur)
		if !ok {
			continue
		}
		altEst, _ := s.model.Predict(t.Kind, alt.Name)
		// Compare unnormalised objective on remaining work: weighted
		// combination where both terms are relative to the current host.
		frac := 0.0
		if t.Gops > 0 {
			frac = t.Remaining() / t.Gops
		}
		curCost := s.cfg.Alpha*curEst.Joules*frac + (1-s.cfg.Alpha)*curEst.Seconds*frac
		altCost := s.cfg.Alpha*altEst.Joules*frac + (1-s.cfg.Alpha)*altEst.Seconds*frac
		if curCost <= 0 {
			continue
		}
		if (curCost-altCost)/curCost > s.cfg.MigrationGainThreshold {
			if err := s.cl.Migrate(t, alt); err == nil {
				s.Migrations++
			}
		}
		_ = altScore
	}
}

// Run drives the scheduler until every submitted task has completed,
// rescheduling every ReschedulePeriod, and returns the makespan (the
// completion time of the last task).
func (s *Scheduler) Run() (sim.Time, error) {
	if s.cfg.ReschedulePeriod > 0 {
		var tick func()
		tick = func() {
			if s.pending == 0 {
				return // all work done: let the engine drain
			}
			s.schedule()
			s.reschedule()
			s.eng.Schedule(s.cfg.ReschedulePeriod, tick)
		}
		s.eng.Schedule(s.cfg.ReschedulePeriod, tick)
	}
	s.eng.Run()
	if s.pending > 0 || len(s.queue) > 0 {
		return s.lastDone, fmt.Errorf("heats: %d tasks never completed (%d queued)", s.pending, len(s.queue))
	}
	return s.lastDone, nil
}
