// Package gpu models a physical GPU for the DGSF simulation.
//
// A Device owns three things the paper's evaluation measures:
//
//   - finite device memory, allocated in physical chunks (the substrate under
//     the CUDA low-level virtual-memory API that DGSF's migration relies on);
//   - a compute engine executing kernels under processor sharing: a kernel
//     with nominal duration d running alongside k-1 concurrent kernels
//     progresses at rate 1/k (this is why two compute-heavy functions "don't
//     share a GPU well", §VIII-E);
//   - DMA copy engines with finite bandwidth for host↔device and
//     device↔device transfers (the cost that dominates migration, Table V).
//
// Memory contents are tracked as 64-bit fingerprints rather than real bytes:
// every write (memset, copy, kernel mutation) folds into the fingerprint, so
// tests can verify end-to-end data integrity across migration without
// materializing multi-gigabyte buffers.
package gpu

import (
	"fmt"
	"time"

	"dgsf/internal/sim"
)

// Config describes the hardware parameters of a simulated device.
type Config struct {
	ID        int
	Name      string
	MemBytes  int64
	SMs       int
	ClockMHz  int
	H2DBps    float64       // host-to-device copy bandwidth, bytes/s
	D2HBps    float64       // device-to-host copy bandwidth, bytes/s
	D2DBps    float64       // same-device copy bandwidth, bytes/s
	PeerBps   float64       // cross-device copy bandwidth, bytes/s (migration path)
	CopyLat   time.Duration // fixed per-copy launch latency
	KernelLat time.Duration // fixed per-kernel launch latency
}

// V100Config returns the parameters of the NVIDIA V100-SXM2-16GB used in the
// paper's p3.8xlarge testbed. PeerBps is calibrated from Table V: migrating a
// 13194 MB array takes ~2.12 s.
func V100Config(id int) Config {
	return Config{
		ID:        id,
		Name:      "Tesla V100-SXM2-16GB",
		MemBytes:  16 << 30,
		SMs:       80,
		ClockMHz:  1530,
		H2DBps:    11.5e9,
		D2HBps:    11.5e9,
		D2DBps:    700e9,
		PeerBps:   6.5e9,
		CopyLat:   8 * time.Microsecond,
		KernelLat: 5 * time.Microsecond,
	}
}

// Device is one simulated GPU. All methods that take a *sim.Proc must be
// called from simulated processes; the engine's serialization makes internal
// state access race-free.
type Device struct {
	Cfg Config

	compute *psResource
	copyEng *psResource

	memUsed  int64
	nextID   uint64
	allocs   map[uint64]*PhysAlloc
	slowdown float64 // brownout multiplier on kernel/copy nominals (0 or 1: none)
}

// New creates a device bound to engine e.
func New(e *sim.Engine, cfg Config) *Device {
	return &Device{
		Cfg:     cfg,
		compute: newPSResource(e),
		copyEng: newPSResource(e),
		allocs:  make(map[uint64]*PhysAlloc),
	}
}

// ID returns the device index on its GPU server.
func (d *Device) ID() int { return d.Cfg.ID }

// --- memory ---

// PhysAlloc is a physical device-memory allocation (the object created by
// cuMemCreate in the real API). It carries a content fingerprint updated by
// every write so migration correctness is checkable.
type PhysAlloc struct {
	id    uint64
	dev   *Device
	size  int64
	fp    uint64
	freed bool
}

// OOMError reports a failed device allocation.
type OOMError struct {
	Dev       int
	Requested int64
	Free      int64
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("gpu%d: out of memory: requested %d bytes, %d free", e.Dev, e.Requested, e.Free)
}

// AllocPhys reserves size bytes of device memory.
func (d *Device) AllocPhys(size int64) (*PhysAlloc, error) {
	if size <= 0 {
		return nil, fmt.Errorf("gpu%d: invalid allocation size %d", d.Cfg.ID, size)
	}
	if d.memUsed+size > d.Cfg.MemBytes {
		return nil, &OOMError{Dev: d.Cfg.ID, Requested: size, Free: d.Cfg.MemBytes - d.memUsed}
	}
	d.memUsed += size
	d.nextID++
	a := &PhysAlloc{id: d.nextID, dev: d, size: size}
	d.allocs[a.id] = a
	return a, nil
}

// Free releases the allocation. Double frees panic: they indicate a bug in
// the runtime layered above, never a user error.
func (a *PhysAlloc) Free() {
	if a.freed {
		panic(fmt.Sprintf("gpu%d: double free of phys alloc %d", a.dev.Cfg.ID, a.id))
	}
	a.freed = true
	a.dev.memUsed -= a.size
	delete(a.dev.allocs, a.id)
}

// Size returns the allocation size in bytes.
func (a *PhysAlloc) Size() int64 { return a.size }

// Device returns the device owning the allocation.
func (a *PhysAlloc) Device() *Device { return a.dev }

// Fingerprint returns the current content fingerprint.
func (a *PhysAlloc) Fingerprint() uint64 { return a.fp }

// UsedBytes returns the bytes currently allocated on the device.
func (d *Device) UsedBytes() int64 { return d.memUsed }

// FreeBytes returns the bytes currently available on the device.
func (d *Device) FreeBytes() int64 { return d.Cfg.MemBytes - d.memUsed }

// LiveAllocs returns the number of live physical allocations.
func (d *Device) LiveAllocs() int { return len(d.allocs) }

// SetSlowdown applies a brownout multiplier to every subsequent kernel and
// copy nominal on this device: factor 4 makes the GPU compute and move data
// 4× slower. Factor ≤ 1 restores full speed. The fault framework uses this
// to model thermally throttled or contended GPUs that are slow, not dead.
func (d *Device) SetSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	d.slowdown = factor
}

// Slowdown returns the active brownout multiplier (1 when none).
func (d *Device) Slowdown() float64 {
	if d.slowdown < 1 {
		return 1
	}
	return d.slowdown
}

// stretch applies the device's brownout multiplier to a nominal duration.
func (d *Device) stretch(nominal time.Duration) time.Duration {
	if d.slowdown > 1 {
		return time.Duration(float64(nominal) * d.slowdown)
	}
	return nominal
}

// maxSlowdown returns the larger of two devices' brownout multipliers: a
// cross-device transfer is paced by its slower endpoint.
func maxSlowdown(a, b *Device) float64 {
	f := a.Slowdown()
	if g := b.Slowdown(); g > f {
		f = g
	}
	return f
}

// --- content fingerprinting ---

// Mix folds new data into a fingerprint (FNV-1a step over the 64-bit words).
func Mix(fp uint64, vals ...uint64) uint64 {
	const prime = 1099511628211
	if fp == 0 {
		fp = 14695981039346656037
	}
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			fp ^= (v >> (8 * i)) & 0xff
			fp *= prime
		}
	}
	return fp
}

// HostBuffer stands in for host memory contents: synthetic workloads produce
// data as (fingerprint, size) pairs instead of real bytes.
type HostBuffer struct {
	FP   uint64
	Size int64
}

// --- kernels ---

// ExecKernel runs a kernel of nominal duration d to completion under
// processor sharing with every other kernel concurrently executing on the
// device, blocking p until the kernel finishes.
func (d *Device) ExecKernel(p *sim.Proc, nominal time.Duration) {
	var k Kernel
	for more := k.Start(p, d, nominal); more; more = k.Wake(p) {
		p.Park()
	}
}

// Kernel is ExecKernel as a step machine, for a step process (a CUDA
// stream's): Start reports whether the kernel is still running with a wait
// armed, and each time that wait ends Wake does the same, until the kernel
// has finished. The zero value is ready to Start.
type Kernel struct {
	d       *Device
	nominal time.Duration
	job     psJob
	inJob   bool // past the launch latency, executing
}

// Start launches a kernel of nominal duration on d.
func (k *Kernel) Start(p *sim.Proc, d *Device, nominal time.Duration) (more bool) {
	*k = Kernel{d: d, nominal: nominal}
	if lat := d.Cfg.KernelLat; lat > 0 && !p.ArmSleep(lat) {
		return true
	}
	return k.execute(p)
}

// Wake carries on the kernel once the wait it armed has ended.
func (k *Kernel) Wake(p *sim.Proc) (more bool) {
	if !k.inJob {
		return k.execute(p)
	}
	return k.job.wake(p)
}

// execute admits the kernel to the compute engine, its nominal duration
// stretched by the brownout in force now that it starts.
func (k *Kernel) execute(p *sim.Proc) bool {
	k.inJob = true
	return k.job.begin(p, k.d.compute, k.d.stretch(k.nominal))
}

// KernelHash is the fingerprint of a kernel's name that MutateKernel stamps
// into the allocations the kernel writes.
func KernelHash(name string) uint64 {
	h := uint64(0)
	for _, c := range name {
		h = Mix(h, uint64(c))
	}
	return h
}

// MutateKernel applies the kernel whose name hashes to kernel (KernelHash)
// to the allocation's contents, updating the fingerprint deterministically.
// Used by synthetic workloads to model kernels that read and write device
// buffers.
func MutateKernel(a *PhysAlloc, kernel uint64) {
	a.fp = Mix(a.fp, kernel)
}

// ComputeBusy returns the cumulative virtual time during which at least one
// kernel was executing (the quantity NVML's utilization counter integrates).
func (d *Device) ComputeBusy() time.Duration { return d.compute.Busy() }

// --- copies ---

// Memset overwrites the allocation with a byte value, taking D2D write
// bandwidth, and stamps the content fingerprint.
func (d *Device) Memset(p *sim.Proc, a *PhysAlloc, value byte, size int64) {
	d.copyTime(p, size, d.Cfg.D2DBps)
	a.fp = Mix(0, uint64(value), uint64(size))
}

// CopyH2D transfers size bytes of host content into dst over PCIe.
func (d *Device) CopyH2D(p *sim.Proc, dst *PhysAlloc, src HostBuffer, size int64) {
	d.copyTime(p, size, d.Cfg.H2DBps)
	dst.fp = Mix(src.FP, uint64(size))
}

// CopyD2H transfers size bytes of device content to the host, returning the
// host-visible content.
func (d *Device) CopyD2H(p *sim.Proc, src *PhysAlloc, size int64) HostBuffer {
	d.copyTime(p, size, d.Cfg.D2HBps)
	return HostBuffer{FP: Mix(src.fp, uint64(size)), Size: size}
}

// CopyD2D transfers the full contents of src into dst. When the allocations
// live on different devices the transfer runs at peer (NVLink/PCIe-P2P)
// bandwidth and charges both devices' copy engines; this is the data path of
// API-server migration.
func CopyD2D(p *sim.Proc, dst, src *PhysAlloc) {
	size := src.size
	if dst.size < size {
		size = dst.size
	}
	if src.dev == dst.dev {
		src.dev.copyTime(p, size, src.dev.Cfg.D2DBps)
	} else {
		bps := src.dev.Cfg.PeerBps
		if dst.dev.Cfg.PeerBps < bps {
			bps = dst.dev.Cfg.PeerBps
		}
		src.dev.crossCopyTime(p, dst.dev, size, bps)
	}
	dst.fp = src.fp
}

// FabricCopy models a cross-GPU-server transfer over the data-plane fabric:
// the transfer is paced by the fabric bandwidth bps after a fixed link
// latency, occupies both devices' copy engines for its span (GPUDirect DMA on
// each end), and copies content like CopyD2D. The devices belong to different
// machines, so neither NVLink peer bandwidth nor a shared engine applies.
func FabricCopy(p *sim.Proc, dst, src *PhysAlloc, bps float64, lat time.Duration) {
	size := src.size
	if dst.size < size {
		size = dst.size
	}
	if lat > 0 {
		p.Sleep(lat)
	}
	if size > 0 && bps > 0 {
		nominal := time.Duration(float64(size) / bps * float64(time.Second))
		// A brownout on either endpoint paces the whole transfer.
		if f := maxSlowdown(src.dev, dst.dev); f > 1 {
			nominal = time.Duration(float64(nominal) * f)
		}
		dst.dev.copyEng.enter(p)
		src.dev.copyEng.Exec(p, nominal)
		dst.dev.copyEng.leave(p)
	}
	dst.fp = src.fp
}

// copyTime charges the device's copy engine for a size-byte transfer.
func (d *Device) copyTime(p *sim.Proc, size int64, bps float64) {
	if d.Cfg.CopyLat > 0 {
		p.Sleep(d.Cfg.CopyLat)
	}
	if size <= 0 || bps <= 0 {
		return
	}
	nominal := time.Duration(float64(size) / bps * float64(time.Second))
	d.copyEng.Exec(p, d.stretch(nominal))
}

// crossCopyTime charges a peer copy: the source engine paces the transfer
// and the destination engine is marked busy for the same span.
func (d *Device) crossCopyTime(p *sim.Proc, dst *Device, size int64, bps float64) {
	if d.Cfg.CopyLat > 0 {
		p.Sleep(d.Cfg.CopyLat)
	}
	if size <= 0 || bps <= 0 {
		return
	}
	nominal := time.Duration(float64(size) / bps * float64(time.Second))
	if f := maxSlowdown(d, dst); f > 1 {
		nominal = time.Duration(float64(nominal) * f)
	}
	dst.copyEng.enter(p)
	d.copyEng.Exec(p, nominal)
	dst.copyEng.leave(p)
}

// CopyBusy returns cumulative copy-engine busy time.
func (d *Device) CopyBusy() time.Duration { return d.copyEng.Busy() }
