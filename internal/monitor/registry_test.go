package monitor

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistrySnapshotDeepCopy(t *testing.T) {
	r := NewRegistry()
	r.Add("job/a", "tasks-completed", 3)
	r.Set("device/d0", "busy-s", 1.5)
	snap := r.Snapshot()
	if snap["job/a"]["tasks-completed"] != 3 || snap["device/d0"]["busy-s"] != 1.5 {
		t.Fatalf("snapshot content wrong: %v", snap)
	}
	// Mutating the snapshot must not touch the registry, and vice versa.
	snap["job/a"]["tasks-completed"] = 99
	snap["new"] = map[string]float64{"x": 1}
	if r.Get("job/a", "tasks-completed") != 3 {
		t.Fatal("snapshot mutation leaked into the registry")
	}
	r.Add("job/a", "tasks-completed", 1)
	if snap["job/a"]["tasks-completed"] != 99 {
		t.Fatal("registry write leaked into the snapshot")
	}
}

func TestRegistrySnapshotUnderConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scope := []string{"job/a", "job/b", "device/d0", "tail"}[g]
			for {
				select {
				case <-stop:
					return
				default:
					r.Add(scope, "m", 1)
				}
			}
		}(g)
	}
	for i := 0; i < 100; i++ {
		for scope, metrics := range r.Snapshot() {
			for m := range metrics {
				_ = r.Get(scope, m)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestRegistryReportSortedDeterministic(t *testing.T) {
	build := func(order []string) *Registry {
		r := NewRegistry()
		for _, scope := range order {
			r.Add(scope, "zeta", 1)
			r.Add(scope, "alpha", 2)
			r.Add(scope, "mid-metric", 3)
		}
		return r
	}
	a := build([]string{"job/b", "device/d1", "job/a", "power"})
	b := build([]string{"power", "job/a", "job/b", "device/d1"})
	ra, rb := a.Report(), b.Report()
	if ra != rb {
		t.Fatalf("report depends on insertion order:\n%s\nvs\n%s", ra, rb)
	}
	// Scopes and metrics must appear in sorted order.
	wantOrder := []string{"device/d1", "job/a", "job/b", "power"}
	last := -1
	for _, scope := range wantOrder {
		i := strings.Index(ra, scope+"\n")
		if i <= last {
			t.Fatalf("scope %q out of order in report:\n%s", scope, ra)
		}
		last = i
	}
	sec := strings.Split(ra, "device/d1")[1]
	if za, al := strings.Index(sec, "zeta"), strings.Index(sec, "alpha"); al > za {
		t.Fatalf("metrics not sorted within scope:\n%s", ra)
	}
}

// Concurrent Add, AddCell, cell Add, Set and Snapshot on shared metrics:
// run under -race. Every add lands exactly once.
func TestRegistryCellsConcurrent(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var c *Cell
			for i := 0; i < perWriter; i++ {
				r.Add("job/a", "locked", 1)
				if c == nil {
					c = r.AddCell("job/a", "cell", 1)
				} else {
					c.Add(1)
				}
				r.Set("power", "draw-W", float64(g))
				_ = r.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if got := r.Get("job/a", "locked"); got != writers*perWriter {
		t.Fatalf("locked adds: %v, want %d", got, writers*perWriter)
	}
	if got := r.Get("job/a", "cell"); got != writers*perWriter {
		t.Fatalf("cell adds: %v, want %d", got, writers*perWriter)
	}
}

// A metric enters Snapshot and Scopes only with its first write, whether
// that write is an Add, an AddCell or a Set; reads never create one.
func TestRegistryMetricAppearsOnFirstWrite(t *testing.T) {
	r := NewRegistry()
	if r.Get("job/a", "m") != 0 || len(r.Snapshot()) != 0 || len(r.Scopes()) != 0 || len(r.ScopeSnapshot("job/a")) != 0 {
		t.Fatal("reads created a metric")
	}
	c := r.AddCell("job/a", "m", 0.5)
	if snap := r.Snapshot(); len(snap) != 1 || snap["job/a"]["m"] != 0.5 {
		t.Fatalf("after AddCell: %v", snap)
	}
	if _, ok := r.Snapshot()["job/a"]["n"]; ok {
		t.Fatal("unwritten metric in snapshot")
	}
	r.Set("power", "cap-W", 60)
	if got := r.Scopes(); len(got) != 2 || got[0] != "job/a" || got[1] != "power" {
		t.Fatalf("scopes: %v", got)
	}
	c.Add(1)
	if r.Get("job/a", "m") != 1.5 {
		t.Fatalf("cell add not visible: %v", r.Get("job/a", "m"))
	}
}

// Add and the cell AddCell returns address one value: writes through
// either are seen by both, and Set overwrites what the cell holds.
func TestRegistryAddAndCellShareValue(t *testing.T) {
	r := NewRegistry()
	r.Add("device/d0", "energy-J", 2)
	c := r.AddCell("device/d0", "energy-J", 3)
	if c.Load() != 5 || r.Get("device/d0", "energy-J") != 5 {
		t.Fatalf("AddCell onto Add: cell %v, registry %v", c.Load(), r.Get("device/d0", "energy-J"))
	}
	if again := r.AddCell("device/d0", "energy-J", 0); again != c {
		t.Fatal("AddCell returned a second cell for one metric")
	}
	c.Add(1)
	r.Add("device/d0", "energy-J", 1)
	if c.Load() != 7 || r.Snapshot()["device/d0"]["energy-J"] != 7 {
		t.Fatalf("after mixed adds: cell %v, snapshot %v", c.Load(), r.Snapshot())
	}
	r.Set("device/d0", "energy-J", 1)
	if c.Load() != 1 {
		t.Fatalf("Set not visible through the cell: %v", c.Load())
	}
}

// BenchmarkRegistryAdd compares the locked Add (mutex plus two map
// lookups) with an add through a cached cell.
func BenchmarkRegistryAdd(b *testing.B) {
	b.Run("locked", func(b *testing.B) {
		r := NewRegistry()
		for i := 0; i < b.N; i++ {
			r.Add("job/bench", "tasks-completed", 1)
		}
	})
	b.Run("cell", func(b *testing.B) {
		c := NewRegistry().AddCell("job/bench", "tasks-completed", 0)
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
}
