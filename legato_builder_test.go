package legato

import (
	"context"
	"fmt"
	"testing"
)

// A builder keeps its handles grouped by kind whatever order In, Out and
// InOut are called in, also past its inline room, and Submit hands the
// runtime a copy carved from the job's store: clipped, and not the
// builder's memory. The dependences hold when the job runs.
func TestTaskBuilderKeepsDependenceGroups(t *testing.T) {
	sys, err := NewSystem(WithPolicy(MinTime))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	job, err := sys.NewJob("groups")
	if err != nil {
		t.Fatal(err)
	}
	h := make([]DataHandle, 7)
	for i := range h {
		h[i] = job.Data(fmt.Sprintf("d%d", i), 64)
	}
	b := job.Task("x").Gops(10).In(h[0]).Out(h[1]).InOut(h[2]).In(h[3]).Out(h[4]).In(h[5]).InOut(h[6])
	want := []DataHandle{h[0], h[3], h[5], h[1], h[4], h[2], h[6]}
	regs := b.regs()
	if len(regs) != len(want) || b.nIn != 3 || b.nOut != 2 {
		t.Fatalf("%d regions, %d in, %d out; want %d, 3, 2", len(regs), b.nIn, b.nOut, len(want))
	}
	for i, w := range want {
		if regs[i] != w.d {
			t.Fatalf("region %d is %q, want %q", i, regs[i].Name, w.Name())
		}
	}
	job.mu.Lock()
	carved := job.carveLocked(regs)
	job.mu.Unlock()
	if len(carved) != len(regs) || cap(carved) != len(regs) || &carved[0] == &regs[0] {
		t.Fatalf("carved %d regions (cap %d), sharing the builder's: %v", len(carved), cap(carved), &carved[0] == &regs[0])
	}

	if err := b.Submit(); err != nil {
		t.Fatal(err)
	}
	// y reads an output of x; z overwrites an input of x.
	if err := job.Task("y").Gops(1).In(h[4]).Submit(); err != nil {
		t.Fatal(err)
	}
	if err := job.Task("z").Gops(1).Out(h[3]).Submit(); err != nil {
		t.Fatal(err)
	}
	rep, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	at := map[string]int{}
	for i, r := range rep.Records {
		at[r.Name] = i
	}
	x, y, z := rep.Records[at["x"]], rep.Records[at["y"]], rep.Records[at["z"]]
	if y.Start < x.End || z.Start < x.End {
		t.Fatalf("x ends at %v, but y starts at %v and z at %v", x.End, y.Start, z.Start)
	}
}

// Submitting a one-In/one-Out task through the builder allocates only the
// runtime's node: the builder stays on the caller's stack and its lists
// are carved from the job's store.
func TestTaskBuilderSubmitAllocs(t *testing.T) {
	sys, err := NewSystem(WithPlatform(CloudPlatform))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	job, err := sys.NewJob("allocs")
	if err != nil {
		t.Fatal(err)
	}
	in, out := job.Data("in", 64), job.Data("out", 64)
	names := make([]string, 1001)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		if err := job.Task(names[i]).Gops(1).In(in).Out(out).Submit(); err != nil {
			t.Fatal(err)
		}
		i++
	}); n > 1 {
		t.Fatalf("a builder submit took %v allocations, want <= 1", n)
	}
}
