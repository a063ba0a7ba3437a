package cuda

import (
	"fmt"
	"sort"

	"dgsf/internal/gpu"
	"dgsf/internal/sim"
)

// vaBase is the bottom of the device virtual address range handed out by
// MemAddressReserve, mimicking the UVA region CUDA reserves.
const vaBase = 0x7f00_0000_0000

// Context is a CUDA context: one per (process, device), owning a virtual
// address space, physical allocations, streams, events and per-context
// kernel function pointers.
type Context struct {
	rt  *Runtime
	dev *gpu.Device

	ctxMem *gpu.PhysAlloc // the ~303 MB runtime footprint

	nextVA   uint64
	reserved []*Reservation // sorted by Addr

	nextHandle uint64
	phys       map[PhysHandle]*gpu.PhysAlloc
	streams    map[StreamHandle]*Stream
	events     map[EventHandle]*Event
	defStream  *Stream

	fnByName map[string]FnPtr
	fnByPtr  map[FnPtr]uint64 // gpu.KernelHash of the name, hashed once at registration

	destroyed bool
}

// Reservation is a reserved virtual address range, optionally mapped to a
// physical allocation.
type Reservation struct {
	Addr uint64
	Size int64
	Phys PhysHandle // 0 if unmapped
}

func newContext(p *sim.Proc, rt *Runtime, dev *gpu.Device) (*Context, error) {
	ctx := &Context{
		rt:       rt,
		dev:      dev,
		nextVA:   vaBase,
		phys:     make(map[PhysHandle]*gpu.PhysAlloc),
		streams:  make(map[StreamHandle]*Stream),
		events:   make(map[EventHandle]*Event),
		fnByName: make(map[string]FnPtr),
		fnByPtr:  make(map[FnPtr]uint64),
	}
	if rt.costs.CtxBytes > 0 {
		m, err := dev.AllocPhys(rt.costs.CtxBytes)
		if err != nil {
			return nil, ErrMemoryAllocation
		}
		ctx.ctxMem = m
	}
	ctx.defStream = newStream(p, rt.e, dev)
	return ctx, nil
}

// Device returns the physical device this context is bound to.
func (c *Context) Device() *gpu.Device { return c.dev }

// Destroy tears down the context, releasing every allocation, stream and
// event it owns.
func (c *Context) Destroy() {
	if c.destroyed {
		return
	}
	c.destroyed = true
	for _, a := range c.phys {
		a.Free()
	}
	c.phys = nil
	c.reserved = nil
	for _, s := range c.streams {
		s.close()
	}
	c.defStream.close()
	if c.ctxMem != nil {
		c.ctxMem.Free()
		c.ctxMem = nil
	}
	if c.rt.ctxs[c.dev.ID()] == c {
		c.rt.ctxs[c.dev.ID()] = nil
	}
}

func (c *Context) check() error {
	if c.destroyed {
		return ErrContextDestroyed
	}
	return nil
}

func (c *Context) handle() uint64 {
	c.nextHandle++
	return c.nextHandle
}

// --- low-level virtual memory management (cuMem*) ---

// MemAddressReserve reserves a size-byte virtual address range and returns
// its base, mirroring cuMemAddressReserve with addr hint 0.
func (c *Context) MemAddressReserve(p *sim.Proc, size int64) (DevPtr, error) {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return 0, err
	}
	if size <= 0 {
		return 0, ErrInvalidValue
	}
	addr := c.nextVA
	c.nextVA += uint64(size)
	// Round the bump pointer to 2 MiB like the driver's minimum granularity.
	const gran = 2 << 20
	c.nextVA = (c.nextVA + gran - 1) &^ uint64(gran-1)
	c.insertReservation(&Reservation{Addr: addr, Size: size})
	return DevPtr(addr), nil
}

// MemAddressReserveAt reserves [addr, addr+size) exactly. DGSF's migration
// path uses this to reproduce the source context's address space on the
// destination GPU. Overlap with an existing reservation fails with
// ErrAddressInUse.
func (c *Context) MemAddressReserveAt(p *sim.Proc, addr DevPtr, size int64) error {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return err
	}
	if size <= 0 || addr == 0 {
		return ErrInvalidValue
	}
	for _, r := range c.reserved {
		if uint64(addr) < r.Addr+uint64(r.Size) && r.Addr < uint64(addr)+uint64(size) {
			return ErrAddressInUse
		}
	}
	c.insertReservation(&Reservation{Addr: uint64(addr), Size: size})
	if end := uint64(addr) + uint64(size); end > c.nextVA {
		c.nextVA = end
	}
	return nil
}

// MemAddressFree releases a reservation created by MemAddressReserve. The
// range must be unmapped.
func (c *Context) MemAddressFree(p *sim.Proc, addr DevPtr) error {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return err
	}
	i := c.findReservation(uint64(addr))
	if i < 0 || c.reserved[i].Addr != uint64(addr) {
		return ErrInvalidValue
	}
	if c.reserved[i].Phys != 0 {
		return ErrAlreadyMapped
	}
	c.reserved = append(c.reserved[:i], c.reserved[i+1:]...)
	return nil
}

// MemCreate allocates unmapped physical device memory, mirroring
// cuMemCreate.
func (c *Context) MemCreate(p *sim.Proc, size int64) (PhysHandle, error) {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return 0, err
	}
	a, err := c.dev.AllocPhys(size)
	if err != nil {
		return 0, ErrMemoryAllocation
	}
	h := PhysHandle(c.handle())
	c.phys[h] = a
	return h, nil
}

// MemRelease frees physical memory created with MemCreate. Memory still
// mapped cannot be released.
func (c *Context) MemRelease(p *sim.Proc, h PhysHandle) error {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return err
	}
	a, ok := c.phys[h]
	if !ok {
		return ErrInvalidResourceHandle
	}
	for _, r := range c.reserved {
		if r.Phys == h {
			return ErrAlreadyMapped
		}
	}
	a.Free()
	delete(c.phys, h)
	return nil
}

// MemMap maps a physical allocation into a reserved virtual range,
// mirroring cuMemMap+cuMemSetAccess.
func (c *Context) MemMap(p *sim.Proc, addr DevPtr, h PhysHandle) error {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return err
	}
	a, ok := c.phys[h]
	if !ok {
		return ErrInvalidResourceHandle
	}
	i := c.findReservation(uint64(addr))
	if i < 0 || c.reserved[i].Addr != uint64(addr) {
		return ErrNotMapped
	}
	r := c.reserved[i]
	if r.Phys != 0 {
		return ErrAlreadyMapped
	}
	if a.Size() < r.Size {
		return ErrInvalidValue
	}
	r.Phys = h
	return nil
}

// MemUnmap removes the mapping at addr, leaving both the reservation and
// the physical allocation alive.
func (c *Context) MemUnmap(p *sim.Proc, addr DevPtr) error {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return err
	}
	i := c.findReservation(uint64(addr))
	if i < 0 || c.reserved[i].Addr != uint64(addr) {
		return ErrInvalidValue
	}
	if c.reserved[i].Phys == 0 {
		return ErrNotMapped
	}
	c.reserved[i].Phys = 0
	return nil
}

// Reservations returns a snapshot of the context's virtual address layout,
// sorted by address. Migration walks this to rebuild the space elsewhere.
func (c *Context) Reservations() []Reservation {
	out := make([]Reservation, len(c.reserved))
	for i, r := range c.reserved {
		out[i] = *r
	}
	return out
}

// PhysAlloc resolves a physical handle (for the migration engine and tests).
func (c *Context) PhysAlloc(h PhysHandle) (*gpu.PhysAlloc, bool) {
	a, ok := c.phys[h]
	return a, ok
}

// DetachPhys unmaps ptr and removes its backing physical allocation from the
// context without freeing device memory: ownership of the allocation passes
// to the caller. This is the export half of the GPU-side data plane — the
// tensor stays resident on the device while it waits for a consumer.
func (c *Context) DetachPhys(p *sim.Proc, ptr DevPtr) (*gpu.PhysAlloc, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	i := c.findReservation(uint64(ptr))
	if i < 0 || c.reserved[i].Addr != uint64(ptr) {
		return nil, ErrInvalidValue
	}
	h := c.reserved[i].Phys
	if h == 0 {
		return nil, ErrNotMapped
	}
	a, ok := c.phys[h]
	if !ok {
		return nil, ErrInvalidResourceHandle
	}
	if err := c.MemUnmap(p, ptr); err != nil {
		return nil, err
	}
	delete(c.phys, h)
	if err := c.MemAddressFree(p, ptr); err != nil {
		return nil, err
	}
	return a, nil
}

// AdoptMapped maps an existing physical allocation — typically detached from
// another context on the same device — into this context's address space
// (reserve + adopt + map). This is the import half of the data plane's
// zero-copy handoff: no bytes move, only page tables.
func (c *Context) AdoptMapped(p *sim.Proc, a *gpu.PhysAlloc) (DevPtr, error) {
	if err := c.check(); err != nil {
		return 0, err
	}
	if a.Device() != c.dev {
		return 0, ErrInvalidDevice
	}
	ptr, err := c.MemAddressReserve(p, a.Size())
	if err != nil {
		return 0, err
	}
	h := PhysHandle(c.handle())
	c.phys[h] = a
	if err := c.MemMap(p, ptr, h); err != nil {
		delete(c.phys, h)
		_ = c.MemAddressFree(p, ptr)
		return 0, err
	}
	return ptr, nil
}

// Backing resolves a device pointer to its physical allocation. The data
// plane uses it for peer copies and broadcast clones.
func (c *Context) Backing(ptr DevPtr) (*gpu.PhysAlloc, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	return c.resolve(ptr)
}

// UsedBytes returns device memory charged to this context's allocations,
// excluding the fixed context footprint.
func (c *Context) UsedBytes() int64 {
	var n int64
	for _, a := range c.phys {
		n += a.Size()
	}
	return n
}

// insertReservation keeps c.reserved sorted by base address.
func (c *Context) insertReservation(r *Reservation) {
	i := sort.Search(len(c.reserved), func(i int) bool { return c.reserved[i].Addr > r.Addr })
	c.reserved = append(c.reserved, nil)
	copy(c.reserved[i+1:], c.reserved[i:])
	c.reserved[i] = r
}

// findReservation returns the index of the reservation containing va, or -1.
func (c *Context) findReservation(va uint64) int {
	i := sort.Search(len(c.reserved), func(i int) bool { return c.reserved[i].Addr > va })
	i--
	if i < 0 {
		return -1
	}
	r := c.reserved[i]
	if va >= r.Addr+uint64(r.Size) {
		return -1
	}
	return i
}

// resolve maps a device pointer to its backing physical allocation.
func (c *Context) resolve(ptr DevPtr) (*gpu.PhysAlloc, error) {
	i := c.findReservation(uint64(ptr))
	if i < 0 {
		return nil, ErrInvalidAddressSpace
	}
	r := c.reserved[i]
	if r.Phys == 0 {
		return nil, ErrNotMapped
	}
	a, ok := c.phys[r.Phys]
	if !ok {
		return nil, ErrInvalidResourceHandle
	}
	return a, nil
}

// --- high-level memory API (cudaMalloc and friends) ---
//
// Even the "simple" allocation path is built on the VMM primitives, exactly
// as DGSF's API server implements it (§V-B, "Memory management"): this is
// what lets an API server move to a different GPU while preserving every
// virtual address the application holds.

// Malloc mirrors cudaMalloc: reserve + create + map in one call.
func (c *Context) Malloc(p *sim.Proc, size int64) (DevPtr, error) {
	if err := c.check(); err != nil {
		return 0, err
	}
	if size <= 0 {
		return 0, ErrInvalidValue
	}
	ptr, err := c.MemAddressReserve(p, size)
	if err != nil {
		return 0, err
	}
	h, err := c.MemCreate(p, size)
	if err != nil {
		_ = c.MemAddressFree(p, ptr)
		return 0, err
	}
	if err := c.MemMap(p, ptr, h); err != nil {
		_ = c.MemRelease(p, h)
		_ = c.MemAddressFree(p, ptr)
		return 0, err
	}
	return ptr, nil
}

// Free mirrors cudaFree: unmap, release and unreserve the pointer's range.
func (c *Context) Free(p *sim.Proc, ptr DevPtr) error {
	if err := c.check(); err != nil {
		return err
	}
	i := c.findReservation(uint64(ptr))
	if i < 0 || c.reserved[i].Addr != uint64(ptr) {
		return ErrInvalidValue
	}
	h := c.reserved[i].Phys
	if err := c.MemUnmap(p, ptr); err != nil {
		return err
	}
	if err := c.MemRelease(p, h); err != nil {
		return err
	}
	return c.MemAddressFree(p, ptr)
}

// Memset mirrors cudaMemset on a full allocation.
func (c *Context) Memset(p *sim.Proc, ptr DevPtr, value byte, size int64) error {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return err
	}
	a, err := c.resolve(ptr)
	if err != nil {
		return err
	}
	c.defStream.awaitIdle(p)
	c.dev.Memset(p, a, value, size)
	return nil
}

// MemcpyH2D mirrors synchronous cudaMemcpy(HostToDevice).
func (c *Context) MemcpyH2D(p *sim.Proc, dst DevPtr, src gpu.HostBuffer, size int64) error {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return err
	}
	a, err := c.resolve(dst)
	if err != nil {
		return err
	}
	c.defStream.awaitIdle(p)
	c.dev.CopyH2D(p, a, src, size)
	return nil
}

// MemcpyD2H mirrors synchronous cudaMemcpy(DeviceToHost).
func (c *Context) MemcpyD2H(p *sim.Proc, src DevPtr, size int64) (gpu.HostBuffer, error) {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return gpu.HostBuffer{}, err
	}
	a, err := c.resolve(src)
	if err != nil {
		return gpu.HostBuffer{}, err
	}
	c.defStream.awaitIdle(p)
	return c.dev.CopyD2H(p, a, size), nil
}

// MemcpyD2D mirrors synchronous cudaMemcpy(DeviceToDevice) within the
// context's device.
func (c *Context) MemcpyD2D(p *sim.Proc, dst, src DevPtr, size int64) error {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return err
	}
	da, err := c.resolve(dst)
	if err != nil {
		return err
	}
	sa, err := c.resolve(src)
	if err != nil {
		return err
	}
	c.defStream.awaitIdle(p)
	gpu.CopyD2D(p, da, sa)
	_ = size
	return nil
}

// --- modules and kernel functions ---

// RegisterFunction registers a kernel by name, returning the per-context
// function pointer (__cudaRegisterFunction). Registering the same name twice
// returns the existing pointer.
func (c *Context) RegisterFunction(p *sim.Proc, name string) (FnPtr, error) {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return 0, err
	}
	if f, ok := c.fnByName[name]; ok {
		return f, nil
	}
	// Function pointers differ across contexts: derive from the device ID
	// and registration order, never from the name alone.
	f := FnPtr(0x4000_0000_0000 + uint64(c.dev.ID())<<32 + uint64(len(c.fnByName)+1))
	c.fnByName[name] = f
	c.fnByPtr[f] = gpu.KernelHash(name)
	return f, nil
}

// FunctionPtr returns the pointer registered for name in this context.
func (c *Context) FunctionPtr(name string) (FnPtr, error) {
	f, ok := c.fnByName[name]
	if !ok {
		return 0, ErrInvalidFunction
	}
	return f, nil
}

// String implements fmt.Stringer for diagnostics.
func (c *Context) String() string {
	return fmt.Sprintf("ctx(dev%d, %d allocs, %d streams)", c.dev.ID(), len(c.phys), len(c.streams))
}
