// Package mpi is an in-process message-passing runtime in the style of the
// MPI subset that FTI and the Heat2D workload use (paper Sec. IV, Listing 1):
// ranks, point-to-point Send/Recv with tags, Barrier, Allreduce and Gather.
// Ranks execute as simulated processes (internal/sim) so communication and
// I/O costs accrue in virtual time, and payloads are real Go values so
// checkpoint/recovery correctness is testable end to end.
package mpi

import (
	"fmt"

	"legato/internal/sim"
)

// World describes a launched job: the engine, rank count, and the network
// cost model connecting the ranks.
type World struct {
	eng  *sim.Engine
	size int

	// nodeOf maps a rank to its node; ranks on the same node communicate
	// over shared memory (fast), others over the interconnect.
	nodeOf []int

	ranks []*Rank

	// Interconnect parameters.
	netBytesPerSec   float64
	netLatency       sim.Time
	shmBytesPerSec   float64
	shmLatency       sim.Time
	perRankNICShared bool
}

// Config parametrises a World.
type Config struct {
	// Size is the number of ranks; must be positive.
	Size int
	// RanksPerNode groups consecutive ranks onto nodes (default: all ranks
	// on distinct nodes).
	RanksPerNode int
	// NetBytesPerSec is the interconnect bandwidth per rank NIC
	// (default 10 GB/s — 40GbE-class with protocol overhead plus RDMA).
	NetBytesPerSec float64
	// NetLatency is the per-message interconnect latency (default 5 µs).
	NetLatency sim.Time
	// ShmBytesPerSec is the intra-node (shared-memory) bandwidth
	// (default 20 GB/s).
	ShmBytesPerSec float64
	// ShmLatency is the intra-node per-message latency (default 500 ns).
	ShmLatency sim.Time
}

// NewWorld creates a world of cfg.Size ranks on eng.
func NewWorld(eng *sim.Engine, cfg Config) (*World, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", cfg.Size)
	}
	if cfg.RanksPerNode <= 0 {
		cfg.RanksPerNode = 1
	}
	if cfg.NetBytesPerSec == 0 {
		cfg.NetBytesPerSec = 10e9
	}
	if cfg.NetLatency == 0 {
		cfg.NetLatency = 5 * sim.Microsecond
	}
	if cfg.ShmBytesPerSec == 0 {
		cfg.ShmBytesPerSec = 20e9
	}
	if cfg.ShmLatency == 0 {
		cfg.ShmLatency = 500 * sim.Nanosecond
	}
	w := &World{
		eng:            eng,
		size:           cfg.Size,
		nodeOf:         make([]int, cfg.Size),
		netBytesPerSec: cfg.NetBytesPerSec,
		netLatency:     cfg.NetLatency,
		shmBytesPerSec: cfg.ShmBytesPerSec,
		shmLatency:     cfg.ShmLatency,
	}
	for r := 0; r < cfg.Size; r++ {
		w.nodeOf[r] = r / cfg.RanksPerNode
	}
	for r := 0; r < cfg.Size; r++ {
		w.ranks = append(w.ranks, &Rank{
			world: w,
			rank:  r,
			nic:   sim.NewPipe(eng, cfg.NetBytesPerSec, 0),
			boxes: make(map[msgKey]*sim.Mailbox),
		})
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// NodeOf returns the node index hosting rank r.
func (w *World) NodeOf(r int) int { return w.nodeOf[r] }

// Nodes returns the number of distinct nodes.
func (w *World) Nodes() int {
	if w.size == 0 {
		return 0
	}
	return w.nodeOf[w.size-1] + 1
}

// ErrDeadlock reports ranks still blocked after the event queue drained.
var ErrDeadlock = fmt.Errorf("mpi: ranks deadlocked (blocked with no pending events)")

// Run launches body on every rank and drives the simulation to completion.
// It returns ErrDeadlock if any rank remains blocked at the end.
func (w *World) Run(body func(*Rank)) error {
	barrier := sim.NewBarrier(w.eng, w.size)
	for _, r := range w.ranks {
		r := r
		r.barrier = barrier
		w.eng.Go(fmt.Sprintf("rank%d", r.rank), func(p *sim.Proc) {
			r.proc = p
			body(r)
		})
	}
	w.eng.Run()
	if w.eng.ActiveProcs() != 0 {
		return ErrDeadlock
	}
	return nil
}

// msgKey matches messages by sender and tag, as in MPI point-to-point.
type msgKey struct {
	src, tag int
}

// message carries a payload and its modelled size.
type message struct {
	payload any
	bytes   int64
}

// Rank is one process in the world. Its methods must only be called from
// inside the body function passed to Run (i.e. from its own proc).
type Rank struct {
	world   *World
	rank    int
	proc    *sim.Proc
	nic     *sim.Pipe
	boxes   map[msgKey]*sim.Mailbox
	barrier *sim.Barrier

	// BytesSent accumulates traffic for reporting.
	BytesSent int64
}

// Rank returns this rank's index.
func (r *Rank) Rank() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.size }

// Proc exposes the underlying simulated process (for Sleep, Await etc.).
func (r *Rank) Proc() *sim.Proc { return r.proc }

// World returns the owning world.
func (r *Rank) World() *World { return r.world }

func (r *Rank) box(src, tag int) *sim.Mailbox {
	k := msgKey{src: src, tag: tag}
	b, ok := r.boxes[k]
	if !ok {
		b = sim.NewMailbox(r.world.eng)
		r.boxes[k] = b
	}
	return b
}

// transferTime models the wire time between two ranks for size bytes.
func (w *World) transferTime(src, dst int, size int64) sim.Time {
	if w.nodeOf[src] == w.nodeOf[dst] {
		return w.shmLatency + sim.Seconds(float64(size)/w.shmBytesPerSec)
	}
	return w.netLatency + sim.Seconds(float64(size)/w.netBytesPerSec)
}

// Send delivers payload to rank dst with the given tag, blocking the caller
// until the message has been transferred onto the destination queue. size
// is the modelled byte count (use SizeOfFloat64s and friends).
func (r *Rank) Send(dst, tag int, payload any, size int64) {
	if dst < 0 || dst >= r.world.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	r.BytesSent += size
	t := r.world.transferTime(r.rank, dst, size)
	target := r.world.ranks[dst]
	src := r.rank
	r.proc.Await(func(done func()) {
		// The sender's NIC serialises outgoing messages.
		r.nic.Transfer(0, func() {
			r.world.eng.Schedule(t, func() {
				target.box(src, tag).Put(message{payload: payload, bytes: size})
				done()
			})
		})
	})
}

// ISend is the non-blocking variant: the message is queued for delivery and
// the call returns immediately (the wire time still elapses before the
// receiver can match it).
func (r *Rank) ISend(dst, tag int, payload any, size int64) {
	if dst < 0 || dst >= r.world.size {
		panic(fmt.Sprintf("mpi: isend to invalid rank %d", dst))
	}
	r.BytesSent += size
	t := r.world.transferTime(r.rank, dst, size)
	target := r.world.ranks[dst]
	src := r.rank
	r.nic.Transfer(0, func() {
		r.world.eng.Schedule(t, func() {
			target.box(src, tag).Put(message{payload: payload, bytes: size})
		})
	})
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload.
func (r *Rank) Recv(src, tag int) any {
	if src < 0 || src >= r.world.size {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", src))
	}
	msg := r.box(src, tag).Get(r.proc).(message)
	return msg.payload
}

// Sendrecv posts a non-blocking send to dst and then receives from src —
// the deadlock-free halo-exchange idiom.
func (r *Rank) Sendrecv(dst, sendTag int, payload any, size int64, src, recvTag int) any {
	r.ISend(dst, sendTag, payload, size)
	return r.Recv(src, recvTag)
}

// Barrier blocks until every rank in the world has entered it.
func (r *Rank) Barrier() { r.barrier.Wait(r.proc) }

// internal tag space for collectives, above user tags.
const collectiveTag = 1 << 20

// Allreduce combines one float64 per rank with op and returns the result on
// every rank. Implemented as gather-to-root plus broadcast.
func (r *Rank) Allreduce(x float64, op func(a, b float64) float64) float64 {
	const tag = collectiveTag
	if r.rank == 0 {
		acc := x
		for src := 1; src < r.world.size; src++ {
			acc = op(acc, r.Recv(src, tag).(float64))
		}
		for dst := 1; dst < r.world.size; dst++ {
			r.ISend(dst, tag+1, acc, 8)
		}
		return acc
	}
	r.Send(0, tag, x, 8)
	return r.Recv(0, tag+1).(float64)
}

// Gather collects each rank's payload at root (returned in rank order on
// root; nil elsewhere).
func (r *Rank) Gather(root int, payload any, size int64) []any {
	const tag = collectiveTag + 2
	if r.rank == root {
		out := make([]any, r.world.size)
		out[root] = payload
		for src := 0; src < r.world.size; src++ {
			if src == root {
				continue
			}
			out[src] = r.Recv(src, tag)
		}
		return out
	}
	r.Send(root, tag, payload, size)
	return nil
}

// Bcast distributes root's payload to every rank and returns it.
func (r *Rank) Bcast(root int, payload any, size int64) any {
	const tag = collectiveTag + 3
	if r.rank == root {
		for dst := 0; dst < r.world.size; dst++ {
			if dst != root {
				r.ISend(dst, tag, payload, size)
			}
		}
		return payload
	}
	return r.Recv(root, tag)
}

// SizeOfFloat64s returns the modelled wire size of a float64 slice.
func SizeOfFloat64s(xs []float64) int64 { return int64(8 * len(xs)) }
