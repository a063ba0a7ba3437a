package apiserver

import (
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/gpu"
	"dgsf/internal/sim"
)

// Migrate moves the API server's execution to another GPU (§V-D). It runs
// at an API call boundary (the monitor injects it through the inbox) and:
//
//  1. waits for all pending device work to complete, then checks that the
//     target has room for all of it, failing with nothing moved otherwise;
//  2. obtains (creating if needed) a context on the target GPU;
//  3. rebuilds the application's virtual address space on the target using
//     the low-level VMM API — reserving the *same* virtual addresses with
//     MemAddressReserveAt, allocating fresh physical memory with MemCreate,
//     copying device-to-device and mapping with MemMap — so every pointer
//     the application holds, including indirect device pointers stored in
//     device memory, remains valid;
//  4. re-creates kernel registrations in the target context and replicates
//     the session's resource table there (replicateTo).
//
// It returns the migration duration.
func (s *Server) Migrate(p *sim.Proc, target int) (time.Duration, error) {
	if target == s.curDev {
		return 0, nil
	}
	// Live data-plane attachments pin the server to its device: a zero-copy
	// imported mapping shares physical memory owned by the fabric, and a
	// broadcast source is cloned from by sibling servers. Moving would free
	// or strand that shared memory, so refuse until the session drops them
	// (real CUDA similarly refuses to unmap memory with open IPC handles).
	if sess := s.sess; sess != nil && (len(sess.imported) > 0 || sess.bcastPtr != 0) {
		return 0, cuda.ErrAlreadyMapped
	}
	start := p.Now()
	oldCtx, err := s.rt.Context(p, s.curDev)
	if err != nil {
		return 0, err
	}

	// 1. Stop: wait for completion of all pending operations.
	if err := oldCtx.DeviceSynchronize(p); err != nil {
		return 0, err
	}

	// The target must hold every mapped reservation, and a context if it
	// has none, before anything moves: running out of memory half-way would
	// strand the moved pointers on a device curDev does not name.
	devs := s.rt.Devices()
	if target < 0 || target >= len(devs) {
		return 0, cuda.ErrInvalidDevice
	}
	reserved := oldCtx.Reservations()
	need := s.rt.ContextBytes(target)
	for _, r := range reserved {
		if a, ok := oldCtx.PhysAlloc(r.Phys); ok {
			need += a.Size()
		}
	}
	if need > devs[target].FreeBytes() {
		return 0, cuda.ErrMemoryAllocation
	}

	// 2. Target context (one per GPU, created on first use).
	newCtx, err := s.rt.Context(p, target)
	if err != nil {
		return 0, err
	}
	s.visited[target] = target != s.cfg.HomeDev

	// 3. Move every mapped reservation, preserving virtual addresses.
	for _, r := range reserved {
		va := cuda.DevPtr(r.Addr)
		if err := newCtx.MemAddressReserveAt(p, va, r.Size); err != nil {
			return 0, err
		}
		if r.Phys == 0 {
			continue // reserved but unmapped: nothing to copy
		}
		oldAlloc, ok := oldCtx.PhysAlloc(r.Phys)
		if !ok {
			return 0, cuda.ErrInvalidResourceHandle
		}
		newPhys, err := newCtx.MemCreate(p, oldAlloc.Size())
		if err != nil {
			return 0, err
		}
		newAlloc, _ := newCtx.PhysAlloc(newPhys)
		gpu.CopyD2D(p, newAlloc, oldAlloc)
		if err := newCtx.MemMap(p, va, newPhys); err != nil {
			return 0, err
		}
		// Release the source: unmap, free physical, drop the reservation.
		if err := oldCtx.MemUnmap(p, va); err != nil {
			return 0, err
		}
		if err := oldCtx.MemRelease(p, r.Phys); err != nil {
			return 0, err
		}
		if err := oldCtx.MemAddressFree(p, va); err != nil {
			return 0, err
		}
	}

	// 4. Re-register kernels so launches can translate to valid per-context
	// function pointers, then bring the resource table and the idle pool over.
	if sess := s.sess; sess != nil {
		for _, name := range sess.kernelNames {
			if _, err := newCtx.RegisterFunction(p, name); err != nil {
				return 0, err
			}
		}
	}
	if err := s.replicateTo(p, target, newCtx); err != nil {
		return 0, err
	}

	s.curDev = target
	// A retained cached model rode along in the reservation walk above (its
	// virtual address is unchanged); move its budget accounting with it.
	if s.pinned != nil && s.cfg.Cache != nil {
		s.cfg.Cache.UpdatePinGPU(s.cfg.ID, target)
	}
	return p.Now() - start, nil
}
