package sim

// Resource models a capacity-limited server (CPU cores, a DMA engine, a
// storage device) in virtual time. Requests queue FIFO; each acquisition
// holds one unit of capacity for a caller-controlled span.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  []func()

	// Busy accumulates unit-busy virtual time for utilisation reporting.
	Busy Time
}

// NewResource creates a resource with the given unit capacity.
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: eng, capacity: capacity}
}

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Acquire requests one unit; acquired runs (possibly immediately) once a
// unit is available. The holder must call Release exactly once.
func (r *Resource) Acquire(acquired func()) {
	if r.inUse < r.capacity {
		r.inUse++
		acquired()
		return
	}
	r.waiters = append(r.waiters, acquired)
}

// Release returns one unit and wakes the oldest waiter, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource")
	}
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		r.waiters = r.waiters[1:]
		next() // unit transfers directly to the waiter
		return
	}
	r.inUse--
}

// Use is the common acquire→hold→release pattern: it acquires a unit,
// holds it for span of virtual time, then releases and calls done.
func (r *Resource) Use(span Time, done func()) {
	r.Acquire(func() {
		start := r.eng.Now()
		r.eng.Schedule(span, func() {
			r.Busy += r.eng.Now() - start
			r.Release()
			if done != nil {
				done()
			}
		})
	})
}

// Pipe models a bandwidth-limited, FIFO transfer channel (a PCIe link, a
// NVMe device, a network hop). Transfers serialise: each occupies the pipe
// for size/bandwidth plus a fixed per-transfer latency.
type Pipe struct {
	eng *Engine
	res *Resource

	// BytesPerSecond is the sustained bandwidth of the channel.
	BytesPerSecond float64
	// Latency is the fixed per-transfer setup cost.
	Latency Time

	// Transferred accumulates total bytes moved, for reporting.
	Transferred int64
}

// NewPipe builds a transfer channel with the given bandwidth and latency.
func NewPipe(eng *Engine, bytesPerSecond float64, latency Time) *Pipe {
	if bytesPerSecond <= 0 {
		panic("sim: pipe bandwidth must be positive")
	}
	return &Pipe{eng: eng, res: NewResource(eng, 1), BytesPerSecond: bytesPerSecond, Latency: latency}
}

// TransferTime returns the service time for a transfer of size bytes,
// excluding queueing.
func (p *Pipe) TransferTime(size int64) Time {
	sec := float64(size) / p.BytesPerSecond
	return p.Latency + Time(sec*float64(Second))
}

// Transfer queues a transfer of size bytes; done runs when it completes.
func (p *Pipe) Transfer(size int64, done func()) {
	p.res.Use(p.TransferTime(size), func() {
		p.Transferred += size
		if done != nil {
			done()
		}
	})
}

// Convenient duration units in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts a float64 second count to virtual time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// ToSeconds converts virtual time to float64 seconds.
func ToSeconds(t Time) float64 { return float64(t) / float64(Second) }
