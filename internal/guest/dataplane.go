package guest

// Guest-side wrappers for the GPU data plane (internal/dataplane): tensor
// export/import between chained functions and model broadcast. The import
// family establishes server-side state and goes through attach (recovery.go),
// which journals it; exports, like ModelPersist, *remove* session state and
// instead retire the exported pointer's journal entries.

import (
	"dgsf/internal/cuda"
	"dgsf/internal/sim"
)

// MemExport publishes a device allocation on the GPU server's data plane and
// returns its fabric-wide export ID. Ownership leaves the session: the
// pointer is dropped from local tracking and its journal entries are retired
// — a recovered session must not rebuild a tensor it no longer owns.
func (l *Lib) MemExport(p *sim.Proc, ptr cuda.DevPtr, tag string) (export uint64, size int64, err error) {
	err = l.sync(p, func(p *sim.Proc) (err error) {
		export, size, err = l.cl.MemExport(p, l.xp(ptr), tag)
		return
	})
	if err != nil {
		return 0, 0, err
	}
	delete(l.ptrSizes, ptr)
	l.dropPtrEntries(ptr)
	return export, size, nil
}

// MemImport maps an export published on the session's own GPU server into
// the session (zero-copy on the same device, an NVLink clone across sibling
// devices). On replay after a failover the export is usually gone and the
// pointer degrades to a plain allocation of the same size.
func (l *Lib) MemImport(p *sim.Proc, export uint64) (cuda.DevPtr, int64, error) {
	a, err := l.attach(p, func(p *sim.Proc) (a attached, err error) {
		a.ptr, a.size, err = l.cl.MemImport(p, export)
		return
	})
	return a.ptr, a.size, err
}

// PeerCopy pulls an export from another GPU server across the data-plane
// fabric into a fresh session allocation. On replay the export is consumed
// or its source dead, and the pointer degrades like MemImport's.
func (l *Lib) PeerCopy(p *sim.Proc, export uint64) (cuda.DevPtr, int64, error) {
	a, err := l.attach(p, func(p *sim.Proc) (a attached, err error) {
		a.ptr, a.size, err = l.cl.PeerCopy(p, export)
		return
	})
	return a.ptr, a.size, err
}

// ModelBroadcast asks the API server for a fan-out copy of the function's
// model: a single host-staged read for the first session on the GPU server,
// a device-to-device clone for the rest. Tracked and journaled exactly like
// ModelAttach.
func (l *Lib) ModelBroadcast(p *sim.Proc) (cuda.DevPtr, int64, int, error) {
	a, err := l.attach(p, func(p *sim.Proc) (a attached, err error) {
		a.ptr, a.size, a.aux, err = l.cl.ModelBroadcast(p)
		return
	})
	return a.ptr, a.size, a.aux, err
}
