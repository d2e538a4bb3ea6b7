package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"legato/internal/sim"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for k := TaskQueued; k <= DeviceLost; k++ {
		name := k.String()
		if strings.Contains(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		var back Kind
		if err := back.UnmarshalText([]byte(name)); err != nil {
			t.Fatalf("unmarshal %q: %v", name, err)
		}
		if back != k {
			t.Fatalf("round trip %q: got %v want %v", name, back, k)
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("no-such-kind")); err == nil {
		t.Fatal("unknown kind name must fail to parse")
	}
}

func TestBusSequencesAndObserves(t *testing.T) {
	b := NewBus()
	var c Collector
	b.Observe(c.Observe)
	for i := 0; i < 3; i++ {
		b.Publish(Event{At: sim.Time(i) * sim.Time(time.Second), Kind: TaskStarted, Task: fmt.Sprintf("t%d", i)})
	}
	events := c.Events()
	if len(events) != 3 {
		t.Fatalf("collected %d events, want 3", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

func TestNilAndIdleBusArePassive(t *testing.T) {
	var nilBus *Bus
	nilBus.Publish(Event{Kind: TaskStarted}) // must not panic
	if nilBus.Active() {
		t.Fatal("nil bus reports active")
	}
	b := NewBus()
	b.Publish(Event{Kind: TaskStarted})
	if b.Active() {
		t.Fatal("idle bus reports active")
	}
	sub := b.Subscribe(1)
	if !b.Active() {
		t.Fatal("bus with subscription reports inactive")
	}
	sub.Close()
	if b.Active() {
		t.Fatal("bus active after last subscription closed")
	}
	// Events published while idle are invisible: the next listener's
	// stream starts at the current sequence.
	b.Publish(Event{Kind: TaskStarted})
	var c Collector
	b.Observe(c.Observe)
	b.Publish(Event{Kind: TaskCompleted})
	if got := c.Events(); len(got) != 1 || got[0].Kind != TaskCompleted {
		t.Fatalf("observer saw %v, want one task-completed", got)
	}
}

func TestSubscriptionDropsWhenFullAndCounts(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(2)
	for i := 0; i < 5; i++ {
		b.Publish(Event{Kind: TaskQueued})
	}
	if got := sub.Dropped(); got != 3 {
		t.Fatalf("dropped %d, want 3 (buffer 2, published 5)", got)
	}
	sub.Close()
	n := 0
	for range sub.Events() {
		n++
	}
	if n != 2 {
		t.Fatalf("received %d buffered events after close, want 2", n)
	}
	sub.Close() // double close is a no-op
}

func TestBusConcurrentPublishRace(t *testing.T) {
	b := NewBus()
	var c Collector
	b.Observe(c.Observe)
	sub := b.Subscribe(8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.Events() {
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Publish(Event{Kind: TaskStarted, Job: fmt.Sprintf("j%d", g)})
			}
		}(g)
	}
	wg.Wait()
	sub.Close()
	<-done
	if c.Len() != 800 {
		t.Fatalf("observer saw %d events, want 800", c.Len())
	}
	// Sequence numbers are the global publication order: dense 1..800.
	seen := make(map[uint64]bool)
	for _, e := range c.Events() {
		seen[e.Seq] = true
	}
	for s := uint64(1); s <= 800; s++ {
		if !seen[s] {
			t.Fatalf("sequence %d missing", s)
		}
	}
}

func TestFormatLogStable(t *testing.T) {
	events := []Event{
		{Seq: 1, At: sim.Time(1500 * time.Millisecond), Kind: TaskPlaced, Job: "render", Task: "stage0", Device: "gpu0", Value: 8},
		{Seq: 2, At: sim.Time(2 * time.Second), Kind: PowerRefused, Job: "render", Task: "stage1", Device: "gpu1", Value: 120, Detail: "cap"},
	}
	got := FormatLog(events)
	want := "     1     1.500000s task-placed        job=render task=stage0 dev=gpu0 v=8\n" +
		"     2     2.000000s power-refused      job=render task=stage1 dev=gpu1 v=120 (cap)\n"
	if got != want {
		t.Fatalf("log rendering drifted:\ngot:\n%swant:\n%s", got, want)
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	in := Event{Seq: 7, At: sim.Time(3 * time.Second), Kind: HedgeWon, Job: "j", Task: "t", Device: "d", Value: 1.5, Detail: "x"}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"kind":"hedge-won"`) {
		t.Fatalf("kind not marshalled by name: %s", blob)
	}
	var out Event
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
}

// TestCollectorOrderAcrossSegments checks that the log keeps publication
// order across segment boundaries, that a view taken earlier never sees
// later events, and that writing into a slice Events returned changes
// neither the log nor later exports.
func TestCollectorOrderAcrossSegments(t *testing.T) {
	b := NewBus()
	var c Collector
	b.Observe(c.Observe)
	const first, total = 1500, 5000 // both well past several segments
	for i := 0; i < first; i++ {
		b.Publish(Event{Kind: TaskStarted, Task: fmt.Sprintf("t%d", i)})
	}
	early := c.View()
	var before bytes.Buffer
	if err := (&SessionView{Events: early}).Encode(&before); err != nil {
		t.Fatal(err)
	}
	copied := c.Events()
	copied[0].Task = "mutated"
	for i := first; i < total; i++ {
		b.Publish(Event{Kind: TaskStarted, Task: fmt.Sprintf("t%d", i)})
	}

	events := c.Events()
	if len(events) != total || c.Len() != total {
		t.Fatalf("collected %d events (Len %d), want %d", len(events), c.Len(), total)
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) || e.Task != fmt.Sprintf("t%d", i) {
			t.Fatalf("event %d = %+v, out of publication order", i, e)
		}
	}
	n := 0
	for _, sg := range early {
		n += len(sg)
	}
	if n != first {
		t.Fatalf("early view grew to %d events, want %d", n, first)
	}
	var after bytes.Buffer
	if err := (&SessionView{Events: early}).Encode(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("an early view's export changed after later events were collected")
	}
	if want := FormatLog(events); c.Log() != want {
		t.Fatal("Log differs from FormatLog(Events())")
	}
}

// TestCollectorConcurrentViews publishes from several goroutines while
// others take views, encode them and copy the log. Run under -race.
func TestCollectorConcurrentViews(t *testing.T) {
	b := NewBus()
	var c Collector
	b.Observe(c.Observe)
	var pubs, readers sync.WaitGroup
	stop := make(chan struct{})
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
				var buf bytes.Buffer
				if err := (&SessionView{Events: c.View()}).Encode(&buf); err != nil {
					t.Error(err)
					return
				}
				_ = c.Events()
			}
		}()
	}
	for g := 0; g < 4; g++ {
		pubs.Add(1)
		go func(g int) {
			defer pubs.Done()
			for i := 0; i < 1000; i++ {
				b.Publish(Event{Kind: TaskCompleted, Job: fmt.Sprintf("j%d", g), Value: float64(i)})
			}
		}(g)
	}
	pubs.Wait()
	close(stop)
	readers.Wait()
	if c.Len() != 4000 {
		t.Fatalf("collected %d events, want 4000", c.Len())
	}
}

// BenchmarkCollectorObserve appends events to a collector the way a
// session's event log receives them; the log restarts every 1<<16 events
// to bound memory.
func BenchmarkCollectorObserve(b *testing.B) {
	e := Event{Kind: TaskCompleted, Job: "j", Task: "t", Device: "d", Value: 1}
	b.ReportAllocs()
	c := &Collector{}
	for i := 0; i < b.N; i++ {
		if i&(1<<16-1) == 0 {
			c = &Collector{}
		}
		c.Observe(e)
	}
}

// BenchmarkPublishDisabled witnesses the fast path: publishing on a bus
// nobody listens to must be a single atomic load, no allocation.
func BenchmarkPublishDisabled(b *testing.B) {
	bus := NewBus()
	e := Event{Kind: TaskStarted, Job: "j", Task: "t", Device: "d"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish(e)
	}
}
