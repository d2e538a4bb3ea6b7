package main

import (
	"bytes"
	"fmt"
	"time"

	"legato/internal/monitor"
	"legato/internal/obs"
	"legato/internal/sim"
	"legato/internal/trace"
)

// Outputs are the artefacts of one kept round, fed through fresh copies of
// the downstream functions.
type Outputs struct {
	Events   []obs.Event
	Spans    []trace.Span
	Counters map[string]float64
	Snapshot map[string]map[string]float64
}

// OutputTimes are medians over repeated passes.
type OutputTimes struct {
	PublishIdleNs, PublishObservedNs, PublishSubscribedNs float64
	DumpMBps, ChromeMBps                                  float64
	PromUs, SnapshotUs, SpansCopyMs                       float64
	Scopes                                                int
	Passes                                                int
}

// replayOutputs times the output path on the captured artefacts until
// budget has passed (at least three passes).
func replayOutputs(o Outputs, budget time.Duration) (OutputTimes, error) {
	if len(o.Events) == 0 {
		return OutputTimes{}, fmt.Errorf("no events captured")
	}
	reg := monitor.NewRegistry()
	for scope, ms := range o.Snapshot {
		for m, v := range ms {
			reg.Set(scope, m, v)
		}
	}
	tr := trace.New(sim.NewEngine())
	for _, s := range o.Spans {
		tr.Add(s)
	}
	perEvent := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(o.Events)) }
	mbps := func(n int, d time.Duration) float64 { return float64(n) / 1e6 / d.Seconds() }

	var idle, observed, subscribed, dump, chrome, prom, snap, spans []float64
	deadline := time.Now().Add(budget)
	for pass := 0; pass < 3 || time.Now().Before(deadline); pass++ {
		bus := obs.NewBus()
		t0 := time.Now()
		for _, e := range o.Events {
			bus.Publish(e)
		}
		idle = append(idle, perEvent(time.Since(t0)))

		bus = obs.NewBus()
		seen := 0
		bus.Observe(func(obs.Event) { seen++ })
		t0 = time.Now()
		for _, e := range o.Events {
			bus.Publish(e)
		}
		observed = append(observed, perEvent(time.Since(t0)))
		if seen != len(o.Events) {
			return OutputTimes{}, fmt.Errorf("observer saw %d of %d events", seen, len(o.Events))
		}

		bus = obs.NewBus()
		sub := bus.Subscribe(len(o.Events))
		t0 = time.Now()
		for _, e := range o.Events {
			bus.Publish(e)
		}
		subscribed = append(subscribed, perEvent(time.Since(t0)))
		if sub.Dropped() != 0 {
			return OutputTimes{}, fmt.Errorf("subscription dropped %d events", sub.Dropped())
		}
		sub.Close()

		var buf bytes.Buffer
		d := obs.SessionDump{Name: "legato-session", Spans: o.Spans, Counters: o.Counters, Metrics: o.Snapshot, Events: o.Events}
		t0 = time.Now()
		if err := d.Encode(&buf); err != nil {
			return OutputTimes{}, fmt.Errorf("encoding session dump: %w", err)
		}
		dump = append(dump, mbps(buf.Len(), time.Since(t0)))

		t0 = time.Now()
		ct, err := obs.ChromeTrace(o.Spans, o.Counters)
		if err != nil {
			return OutputTimes{}, fmt.Errorf("chrome trace: %w", err)
		}
		chrome = append(chrome, mbps(len(ct), time.Since(t0)))

		t0 = time.Now()
		text := obs.PrometheusText(o.Snapshot)
		prom = append(prom, float64(time.Since(t0).Nanoseconds())/1e3)
		if len(text) == 0 {
			return OutputTimes{}, fmt.Errorf("empty prometheus text")
		}

		t0 = time.Now()
		s := reg.Snapshot()
		snap = append(snap, float64(time.Since(t0).Nanoseconds())/1e3)
		if len(s) != len(o.Snapshot) {
			return OutputTimes{}, fmt.Errorf("snapshot has %d scopes, want %d", len(s), len(o.Snapshot))
		}

		t0 = time.Now()
		cp := tr.Spans()
		spans = append(spans, float64(time.Since(t0).Nanoseconds())/1e6)
		if len(cp) != len(o.Spans) {
			return OutputTimes{}, fmt.Errorf("span copy has %d spans, want %d", len(cp), len(o.Spans))
		}
	}
	return OutputTimes{
		PublishIdleNs: median(idle), PublishObservedNs: median(observed), PublishSubscribedNs: median(subscribed),
		DumpMBps: median(dump), ChromeMBps: median(chrome),
		PromUs: median(prom), SnapshotUs: median(snap), SpansCopyMs: median(spans),
		Scopes: len(reg.Scopes()), Passes: len(idle),
	}, nil
}
