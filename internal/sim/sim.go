// Package sim implements the discrete-event simulation kernel used by the
// LEGaTO reproduction. Hardware-gated experiments (GPU checkpoint streaming,
// cluster scheduling, the Smart Mirror pipeline) run against a virtual clock
// so results are deterministic and independent of host load.
//
// The kernel is an event heap over small values. Every event carries a
// firing time and a sequence number (FIFO among equal times), and an Engine
// drains the heap, advancing virtual time monotonically. A pending event's
// payload (its Target, kind and argument) lives in a slot of the engine's
// slot table; the heap holds {at, seq, slot} values that index it. Slots are
// recycled through a free list, so once the tables have grown to an
// engine's peak of pending events, scheduling allocates nothing.
//
// An event's sequence number is also the generation of the slot it
// occupies: a Handle names (slot, seq), and firing or cancelling an event
// frees its slot. A Handle kept past either therefore never matches a later
// event that reuses the slot, and a cancelled event's heap entry is skipped
// when it reaches the head.
//
// Typed events (ScheduleEvent) name a Target, an integer kind and one
// argument; a pointer argument is stored in the slot without allocating.
// Schedule(d, fn) runs on the same kernel with the closure as the target.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured from the engine epoch.
type Time = time.Duration

// Target receives typed events. Fire runs in engine context, like a
// Schedule callback, with the kind and argument the event was scheduled
// with.
type Target interface {
	Fire(kind int, arg any)
}

// callback adapts a Schedule closure to Target. A func value is
// pointer-shaped, so the conversion to Target allocates nothing.
type callback func()

func (f callback) Fire(int, any) { f() }

// entry is one heap value: the event's firing time, its sequence number
// and the slot holding its payload.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

// before orders heap values by firing time, then sequence number.
func before(a, b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// slot is the payload of a pending event. seq is the sequence number of the
// event occupying the slot, 0 while the slot is free.
type slot struct {
	seq    uint64
	target Target
	arg    any
	kind   int
}

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use; model processes are expressed as chains of callbacks.
// In the multi-job engine every job owns exactly one Engine — its private
// virtual clock — and the owning worker goroutine is the only one that may
// touch it; cross-job coordination happens in wall-clock time through the
// admission ledger, never by sharing a clock.
type Engine struct {
	now   Time
	seq   uint64
	heap  []entry // pending and cancelled events, a binary min-heap
	slots []slot
	free  []int32 // indices of free slots
	steps uint64
	live  int // scheduled events not yet fired or cancelled
	procs int
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps reports how many events have been executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending reports the number of scheduled (non-cancelled) events.
func (e *Engine) Pending() int { return e.live }

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle names no event.
type Handle struct {
	eng  *Engine
	seq  uint64
	slot int32
}

// Cancel removes the event from the schedule; cancelling an already-fired
// or already-cancelled event is a no-op, even once its slot holds a later
// event or the drained engine dropped its tables.
func (h Handle) Cancel() {
	if h.eng == nil || int(h.slot) >= len(h.eng.slots) || h.eng.slots[h.slot].seq != h.seq {
		return
	}
	h.eng.release(h.slot)
	h.eng.live--
}

// Schedule queues fn to run after delay of virtual time. A negative delay
// panics: virtual time is monotone.
func (e *Engine) Schedule(delay Time, fn func()) Handle {
	return e.ScheduleEvent(delay, callback(fn), 0, nil)
}

// ScheduleAt queues fn at an absolute virtual time, which must not be in
// the past.
func (e *Engine) ScheduleAt(at Time, fn func()) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	return e.Schedule(at-e.now, fn)
}

// ScheduleEvent queues a typed event: after delay of virtual time the
// engine calls t.Fire(kind, arg). It orders with Schedule callbacks by
// (time, sequence) like any other event. A negative delay panics, and so
// does a delay that would carry the firing time past the largest Time.
func (e *Engine) ScheduleEvent(delay Time, t Target, kind int, arg any) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	at := e.now + delay
	if at < e.now {
		panic(fmt.Sprintf("sim: delay %v from %v overflows virtual time", delay, e.now))
	}
	e.seq++
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		i = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	e.slots[i] = slot{seq: e.seq, target: t, arg: arg, kind: kind}
	e.push(entry{at: at, seq: e.seq, slot: i})
	e.live++
	return Handle{eng: e, seq: e.seq, slot: i}
}

// release frees slot i, dropping its payload.
func (e *Engine) release(i int32) {
	e.slots[i] = slot{}
	e.free = append(e.free, i)
}

// push adds v to the heap.
func (e *Engine) push(v entry) {
	e.heap = append(e.heap, v)
	h := e.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !before(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the heap's head.
func (e *Engine) pop() entry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	e.heap = h
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(&h[r], &h[c]) {
			c = r
		}
		if !before(&h[c], &h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

// cancelled reports whether heap value v's event was cancelled.
func (e *Engine) cancelled(v *entry) bool { return e.slots[v.slot].seq != v.seq }

// Step executes the next event, returning false when no events remain.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		v := e.pop()
		if e.cancelled(&v) {
			continue
		}
		if v.at < e.now {
			panic("sim: time went backwards")
		}
		s := e.slots[v.slot]
		e.release(v.slot) // spent: a late Cancel must be a no-op
		e.live--
		e.now = v.at
		e.steps++
		s.target.Fire(s.kind, s.arg)
		return true
	}
	// Drained: drop the tables, so an engine kept after its run (a
	// finished job's clock) holds no event storage.
	e.heap, e.slots, e.free = nil, nil, nil
	return false
}

// Run drains the event queue completely and returns the final virtual time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with firing time ≤ deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) Time {
	for len(e.heap) > 0 {
		// Peek at the head, skipping cancelled events.
		if e.cancelled(&e.heap[0]) {
			e.pop()
			continue
		}
		if e.heap[0].at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}
