// Package gpu simulates the CUDA device semantics that the FTI GPU/CPU
// checkpointing extension depends on (paper Sec. IV, Listing 1):
//
//   - three address classes — host memory, device memory (cudaMalloc),
//     and unified virtual memory (cudaMallocManaged / UVM) — with the
//     classification FTI_Protect performs;
//   - streams with asynchronous, chunked device-to-host copies over a
//     pinned-DMA engine (the optimised checkpoint path);
//   - the slow page-fault-driven UVM migration path (the initial
//     checkpoint implementation's cost);
//   - kernel launches with a throughput cost model.
//
// Data is held in real byte slices so checkpoint and recovery correctness
// are testable end to end; only the *timing* is modelled.
package gpu

import (
	"fmt"

	"legato/internal/sim"
)

// MemKind classifies an allocation, mirroring the three address classes of
// Listing 1 (host, UVM via cudaMallocManaged, device via cudaMalloc).
type MemKind int

const (
	// HostMem is ordinary host memory.
	HostMem MemKind = iota
	// DeviceMem is device memory; the host cannot dereference it and must
	// copy through the GPU's DMA engine.
	DeviceMem
	// ManagedMem is UVM: host-dereferenceable, but host access triggers
	// page-fault migration at far lower bandwidth than explicit DMA.
	ManagedMem
)

// String names the kind.
func (k MemKind) String() string {
	switch k {
	case HostMem:
		return "host"
	case DeviceMem:
		return "device"
	case ManagedMem:
		return "managed"
	default:
		return fmt.Sprintf("memkind(%d)", int(k))
	}
}

// Config sets the device's cost model. The defaults are calibrated so the
// Fig. 6 experiment lands on the published behaviour: pinned DMA at PCIe
// speed, page-fault UVM migration an order of magnitude slower, matching
// the 12.05× checkpoint / 5.13× recovery gap between the initial and the
// optimised FTI implementations.
type Config struct {
	// Name identifies the device.
	Name string
	// MemBytes is device memory capacity (default 16 GiB).
	MemBytes int64
	// GBPerSecDMA is pinned DMA bandwidth, both directions (default 11 GB/s).
	GBPerSecDMA float64
	// GBPerSecUVMFaultD2H is page-fault-driven device-to-host migration
	// bandwidth (default 0.347 GB/s, fitted to the published 12.05x
	// checkpoint gap).
	GBPerSecUVMFaultD2H float64
	// GBPerSecUVMFaultH2D is page-fault-driven host-to-device migration
	// bandwidth (default 0.88 GB/s, fitted to the published 5.13x
	// recovery gap).
	GBPerSecUVMFaultH2D float64
	// GOPS is kernel throughput in giga-operations/second (default 5000).
	GOPS float64
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "gpu0"
	}
	if c.MemBytes == 0 {
		c.MemBytes = 16 << 30
	}
	if c.GBPerSecDMA == 0 {
		c.GBPerSecDMA = 11
	}
	if c.GBPerSecUVMFaultD2H == 0 {
		c.GBPerSecUVMFaultD2H = 0.347
	}
	if c.GBPerSecUVMFaultH2D == 0 {
		c.GBPerSecUVMFaultH2D = 0.88
	}
	if c.GOPS == 0 {
		c.GOPS = 5000
	}
	return c
}

// Device is one simulated GPU.
type Device struct {
	cfg Config
	eng *sim.Engine

	// dma serialises explicit copies (one copy engine, as on real parts the
	// per-direction engines are few; one is the conservative model).
	dma *sim.Pipe
	// uvmD2H and uvmH2D serialise page-fault migrations.
	uvmD2H *sim.Pipe
	uvmH2D *sim.Pipe
	// compute serialises kernel launches.
	compute *sim.Resource

	allocated int64
	nextID    int
}

// New creates a device on eng with the given configuration.
func New(eng *sim.Engine, cfg Config) *Device {
	cfg = cfg.withDefaults()
	return &Device{
		cfg:     cfg,
		eng:     eng,
		dma:     sim.NewPipe(eng, cfg.GBPerSecDMA*1e9, 10*sim.Microsecond),
		uvmD2H:  sim.NewPipe(eng, cfg.GBPerSecUVMFaultD2H*1e9, 20*sim.Microsecond),
		uvmH2D:  sim.NewPipe(eng, cfg.GBPerSecUVMFaultH2D*1e9, 20*sim.Microsecond),
		compute: sim.NewResource(eng, 1),
	}
}

// Name returns the device name.
func (d *Device) Name() string { return d.cfg.Name }

// Allocated returns the bytes currently allocated on the device.
func (d *Device) Allocated() int64 { return d.allocated }

// Buffer is one allocation. Host code may touch Data directly only for
// HostMem and ManagedMem buffers (UVM host access costs fault-migration
// time, which the FTI paths account for); DeviceMem data must move through
// explicit copies.
type Buffer struct {
	Kind MemKind
	Dev  *Device // nil for HostMem
	ID   int

	data []byte
	// size is the modelled length; for phantom buffers it exceeds
	// len(data) (which is zero).
	size int64
	// phantom buffers carry no real bytes: copies take modelled time but
	// move nothing. They let TB-scale experiments (Fig. 6) run on
	// laptop memory; correctness tests use real buffers.
	phantom bool
}

// Len returns the buffer's modelled size in bytes.
func (b *Buffer) Len() int64 { return b.size }

// Phantom reports whether the buffer is size-only (no backing bytes).
func (b *Buffer) Phantom() bool { return b.phantom }

// HostAccessible reports whether host code may dereference the buffer.
func (b *Buffer) HostAccessible() bool { return b.Kind != DeviceMem }

// Data exposes the backing bytes for host-accessible buffers; it panics for
// device memory, which the host must copy explicitly (as dereferencing a
// cudaMalloc pointer would fault on real hardware).
func (b *Buffer) Data() []byte {
	if !b.HostAccessible() {
		panic(fmt.Sprintf("gpu: host dereference of device pointer (buffer %d on %s)", b.ID, b.Dev.Name()))
	}
	if b.phantom {
		panic(fmt.Sprintf("gpu: dereference of phantom buffer %d (size-only model)", b.ID))
	}
	return b.data
}

// DeviceData exposes the backing bytes for kernel code. Only kernels
// (functions passed to Launch) should use it.
func (b *Buffer) DeviceData() []byte { return b.data }

// HostAlloc allocates ordinary host memory (not tied to a device).
func HostAlloc(n int64) *Buffer {
	return &Buffer{Kind: HostMem, data: make([]byte, n), size: n}
}

// Malloc allocates device memory (cudaMalloc).
func (d *Device) Malloc(n int64) (*Buffer, error) {
	if d.allocated+n > d.cfg.MemBytes {
		return nil, fmt.Errorf("gpu: %s out of memory (%d + %d > %d)", d.cfg.Name, d.allocated, n, d.cfg.MemBytes)
	}
	d.allocated += n
	d.nextID++
	return &Buffer{Kind: DeviceMem, Dev: d, ID: d.nextID, data: make([]byte, n), size: n}, nil
}

// MallocManaged allocates unified memory (cudaMallocManaged).
func (d *Device) MallocManaged(n int64) (*Buffer, error) {
	if d.allocated+n > d.cfg.MemBytes {
		return nil, fmt.Errorf("gpu: %s out of memory (%d + %d > %d)", d.cfg.Name, d.allocated, n, d.cfg.MemBytes)
	}
	d.allocated += n
	d.nextID++
	return &Buffer{Kind: ManagedMem, Dev: d, ID: d.nextID, data: make([]byte, n), size: n}, nil
}

// MallocManagedPhantom allocates size-only unified memory.
func (d *Device) MallocManagedPhantom(n int64) (*Buffer, error) {
	if d.allocated+n > d.cfg.MemBytes {
		return nil, fmt.Errorf("gpu: %s out of memory (%d + %d > %d)", d.cfg.Name, d.allocated, n, d.cfg.MemBytes)
	}
	d.allocated += n
	d.nextID++
	return &Buffer{Kind: ManagedMem, Dev: d, ID: d.nextID, size: n, phantom: true}, nil
}

// Free releases a device or managed buffer.
func (d *Device) Free(b *Buffer) {
	if b.Dev != d {
		panic("gpu: freeing buffer on wrong device")
	}
	d.allocated -= b.Len()
	b.data = nil
}

// Launch runs a kernel of the given cost (giga-operations), blocking the
// calling process for its duration. body mutates buffer contents and runs
// at completion time.
func (d *Device) Launch(p *sim.Proc, gops float64, body func()) {
	span := sim.Seconds(gops / d.cfg.GOPS)
	p.Await(func(done func()) {
		d.compute.Use(span, func() {
			if body != nil {
				body()
			}
			done()
		})
	})
}

// copyWindow validates a copy range against a buffer.
func copyWindow(b *Buffer, off, n int64) error {
	if off < 0 || n < 0 || off+n > b.Len() {
		return fmt.Errorf("gpu: copy window [%d,%d) outside buffer of %d bytes", off, off+n, b.Len())
	}
	return nil
}

// MemcpyD2H copies n bytes from device/managed buffer src (at offset off)
// into dst via the pinned-DMA engine, blocking the calling process.
func (d *Device) MemcpyD2H(p *sim.Proc, dst []byte, src *Buffer, off, n int64) error {
	if err := copyWindow(src, off, n); err != nil {
		return err
	}
	if !src.phantom && int64(len(dst)) < n {
		return fmt.Errorf("gpu: destination too small (%d < %d)", len(dst), n)
	}
	p.TransferP(d.dma, n)
	if !src.phantom {
		copy(dst, src.data[off:off+n])
	}
	return nil
}

// MemcpyH2D copies n bytes from src into device/managed buffer dst at
// offset off via the pinned-DMA engine, blocking the calling process.
func (d *Device) MemcpyH2D(p *sim.Proc, dst *Buffer, off int64, src []byte, n int64) error {
	if err := copyWindow(dst, off, n); err != nil {
		return err
	}
	if !dst.phantom && int64(len(src)) < n {
		return fmt.Errorf("gpu: source too small (%d < %d)", len(src), n)
	}
	p.TransferP(d.dma, n)
	if !dst.phantom {
		copy(dst.data[off:off+n], src[:n])
	}
	return nil
}

// UVMFetchD2H models host code reading a managed buffer whose pages live on
// the device: page-fault migration at the slow UVM rate. This is the
// initial FTI implementation's path for UVM data.
func (d *Device) UVMFetchD2H(p *sim.Proc, dst []byte, src *Buffer, off, n int64) error {
	if src.Kind != ManagedMem {
		return fmt.Errorf("gpu: UVM fetch of non-managed buffer (%s)", src.Kind)
	}
	if err := copyWindow(src, off, n); err != nil {
		return err
	}
	p.TransferP(d.uvmD2H, n)
	if !src.phantom {
		copy(dst, src.data[off:off+n])
	}
	return nil
}

// UVMPopulateH2D models host code writing a managed buffer whose pages must
// migrate back to the device: the slow recovery path of the initial FTI
// implementation.
func (d *Device) UVMPopulateH2D(p *sim.Proc, dst *Buffer, off int64, src []byte, n int64) error {
	if dst.Kind != ManagedMem {
		return fmt.Errorf("gpu: UVM populate of non-managed buffer (%s)", dst.Kind)
	}
	if err := copyWindow(dst, off, n); err != nil {
		return err
	}
	p.TransferP(d.uvmH2D, n)
	if !dst.phantom {
		copy(dst.data[off:off+n], src[:n])
	}
	return nil
}

// Stream is an ordered queue of asynchronous operations, as used by the
// optimised FTI implementation to overlap device-to-host movement with
// file writes.
type Stream struct {
	dev     *Device
	pending int
	waiters []func()
}

// NewStream creates a stream on the device.
func (d *Device) NewStream() *Stream { return &Stream{dev: d} }

// MemcpyD2HAsync enqueues an async chunk copy; done (optional) fires when
// the chunk has landed in dst.
func (s *Stream) MemcpyD2HAsync(dst []byte, src *Buffer, off, n int64, done func()) error {
	if err := copyWindow(src, off, n); err != nil {
		return err
	}
	if !src.phantom && int64(len(dst)) < n {
		return fmt.Errorf("gpu: destination too small (%d < %d)", len(dst), n)
	}
	s.pending++
	s.dev.dma.Transfer(n, func() {
		if !src.phantom {
			copy(dst, src.data[off:off+n])
		}
		s.complete()
		if done != nil {
			done()
		}
	})
	return nil
}

// MemcpyH2DAsync enqueues an async host-to-device chunk copy.
func (s *Stream) MemcpyH2DAsync(dst *Buffer, off int64, src []byte, n int64, done func()) error {
	if err := copyWindow(dst, off, n); err != nil {
		return err
	}
	if !dst.phantom && int64(len(src)) < n {
		return fmt.Errorf("gpu: source too small (%d < %d)", len(src), n)
	}
	s.pending++
	s.dev.dma.Transfer(n, func() {
		if !dst.phantom {
			copy(dst.data[off:off+n], src[:n])
		}
		s.complete()
		if done != nil {
			done()
		}
	})
	return nil
}

func (s *Stream) complete() {
	s.pending--
	if s.pending == 0 {
		ws := s.waiters
		s.waiters = nil
		for _, w := range ws {
			w()
		}
	}
}

// Synchronize blocks the calling process until every operation enqueued on
// the stream so far has completed.
func (s *Stream) Synchronize(p *sim.Proc) {
	if s.pending == 0 {
		return
	}
	p.Await(func(done func()) {
		s.waiters = append(s.waiters, done)
	})
}
