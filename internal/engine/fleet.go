package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"legato/internal/hw"
	"legato/internal/power"
)

// Fleet is the shared per-device admission ledger: the one source of truth
// for how many cores of each physical device are occupied across all
// concurrently executing jobs. Each job schedules against its own platform
// mirror (same device IDs, private virtual clock); the ledger is what
// keeps the union of their placements feasible on the real fleet — a
// TryAcquire that would oversubscribe a device fails, and the job parks
// until a sibling releases capacity.
//
// Each device has one slot in a map whose keys are fixed at construction,
// so every call makes a single lookup and needs no lock for it. Capacity,
// asked on every placement, is an atomic load; every other field is read
// and written under mu. IDs the fleet was not built with are refused,
// reported as zero capacity and never marked lost.
//
// Fleet implements taskrt.Admission and is safe for concurrent use.
type Fleet struct {
	mu     sync.Mutex
	devs   map[string]*fleetDev // read-only after NewFleet
	gen    chan struct{}        // handed out by Changed, closed by the next change; nil until taken
	stalls uint64               // failed admission attempts (contention signal)
	power  *power.Ledger        // coupled watt ledger (optional)
}

// fleetDev is one device's slot in the ledger.
type fleetDev struct {
	cap  atomic.Int64 // total cores: written under mu, read lock-free
	free int          // cap minus granted cores; negative is a deficit
	peak int          // high-water mark of in-use cores
	lost bool         // failed mid-session
}

// NewFleet builds a ledger from the reference devices; capacity is each
// device's core count.
func NewFleet(devices []*hw.Device) *Fleet {
	f := &Fleet{devs: make(map[string]*fleetDev, len(devices))}
	for _, d := range devices {
		fd := &fleetDev{free: d.Spec.Cores}
		fd.cap.Store(int64(d.Spec.Cores))
		f.devs[d.ID] = fd
	}
	return f
}

// AttachPower couples the watt ledger to the core ledger: fleet events
// (Fail) are forwarded so the power ledger stops charging a lost device's
// static draw and releases its outstanding dynamic grants the moment the
// core ledger zeroes its capacity.
func (f *Fleet) AttachPower(l *power.Ledger) {
	f.mu.Lock()
	f.power = l
	f.mu.Unlock()
}

// TryAcquire claims cores on a device; it fails (without blocking) when
// the remaining capacity is insufficient or the device is unknown.
func (f *Fleet) TryAcquire(deviceID string, cores int) bool {
	d := f.devs[deviceID]
	f.mu.Lock()
	defer f.mu.Unlock()
	if d == nil || d.free < cores {
		f.stalls++
		return false
	}
	d.free -= cores
	if used := int(d.cap.Load()) - d.free; used > d.peak {
		d.peak = used
	}
	return true
}

// Release returns cores to a device and wakes every parked job.
func (f *Fleet) Release(deviceID string, cores int) {
	d := f.devs[deviceID]
	f.mu.Lock()
	defer f.mu.Unlock()
	if d == nil {
		panic(fmt.Sprintf("engine: fleet release on unknown device %s", deviceID))
	}
	d.free += cores
	if c := int(d.cap.Load()); d.free > c {
		panic(fmt.Sprintf("engine: fleet over-release on %s (%d free of %d)", deviceID, d.free, c))
	}
	f.wakeLocked()
}

// Changed returns a channel closed on the next Release, SetCapacity or Fail
// after this call. The channel is made on demand and replaced only after it
// was closed, so changes nobody waits for allocate nothing.
func (f *Fleet) Changed() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gen == nil {
		f.gen = make(chan struct{})
	}
	return f.gen
}

// wakeLocked closes the channel handed out by Changed, if any.
func (f *Fleet) wakeLocked() {
	if f.gen != nil {
		close(f.gen)
		f.gen = nil
	}
}

// SetCapacity rescales a device's capacity mid-session (a degrade event —
// e.g. thermal throttling or partial failure). Grants already out may
// exceed the new capacity; the free count then goes negative (a deficit)
// and subsequent Releases pay it down before new admissions succeed. The
// peak high-water mark is clamped to the new capacity, so the invariant
// Peak(id) ≤ Capacity(id) reads against the *current* capacity. Every
// parked job is woken so it can re-evaluate placement. Unknown devices are
// ignored.
func (f *Fleet) SetCapacity(deviceID string, cores int) {
	d := f.devs[deviceID]
	if d == nil {
		return
	}
	if cores < 0 {
		cores = 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	used := int(d.cap.Load()) - d.free
	d.cap.Store(int64(cores))
	d.free = cores - used
	if d.peak > cores {
		d.peak = cores
	}
	f.wakeLocked()
}

// Fail removes a device from the fleet entirely: capacity drops to zero
// (outstanding grants become a deficit that revocations pay back) and the
// device is marked lost. Jobs parked on admission are woken so the loss is
// never missed, and new jobs that still fit the surviving fleet keep being
// admitted — graceful degradation, not session abort. Failing an unknown
// device is a no-op.
func (f *Fleet) Fail(deviceID string) {
	d := f.devs[deviceID]
	if d == nil {
		return
	}
	f.mu.Lock()
	alreadyLost := d.lost
	d.lost = true
	pw := f.power
	f.mu.Unlock()
	if alreadyLost {
		return
	}
	f.SetCapacity(deviceID, 0)
	if pw != nil {
		pw.DeviceLost(deviceID)
	}
}

// Lost reports whether a device was failed mid-session.
func (f *Fleet) Lost(deviceID string) bool {
	d := f.devs[deviceID]
	if d == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return d.lost
}

// Devices returns the IDs of every device the ledger tracks, including
// lost ones.
func (f *Fleet) Devices() []string {
	ids := make([]string, 0, len(f.devs))
	for id := range f.devs {
		ids = append(ids, id)
	}
	return ids
}

// Capacity returns a device's total cores (zero if unknown). It takes no
// lock.
func (f *Fleet) Capacity(deviceID string) int {
	if d := f.devs[deviceID]; d != nil {
		return int(d.cap.Load())
	}
	return 0
}

// InUse returns a device's currently occupied cores.
func (f *Fleet) InUse(deviceID string) int {
	d := f.devs[deviceID]
	if d == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return int(d.cap.Load()) - d.free
}

// Peak returns the high-water mark of occupied cores on a device — the
// oversubscription witness: it can never exceed Capacity.
func (f *Fleet) Peak(deviceID string) int {
	d := f.devs[deviceID]
	if d == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return d.peak
}

// Stalls counts failed admission attempts across all devices.
func (f *Fleet) Stalls() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stalls
}
