package apiserver

// GPU-side data plane (internal/dataplane): tensor export/import between the
// API servers of one GPU server, bandwidth-modeled peer copies across GPU
// servers, and one-to-many model broadcast. These are the server halves of
// the MemExport/MemImport/PeerCopy/ModelBroadcast remoted calls; the plane
// itself only keeps books — every byte moved and every page-table edit goes
// through the cuda/gpu layers so device accounting and content fingerprints
// stay exact.

import (
	"strings"

	"dgsf/internal/cuda"
	"dgsf/internal/dataplane"
	"dgsf/internal/gpu"
	"dgsf/internal/modelcache"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// MemExport detaches a session allocation and publishes it on the data plane
// under a fabric-wide export ID. Ownership leaves the session — the pointer
// becomes invalid for the producer, its bytes stop counting against the
// session limit — but the tensor stays resident on the device awaiting a
// consumer, which is the whole point: the handoff never touches the host.
func (s *Server) MemExport(p *sim.Proc, ptr cuda.DevPtr, tag string) (uint64, int64, error) {
	sess, ctx, err := s.open(p)
	if err != nil {
		return 0, 0, err
	}
	pl := s.cfg.Plane
	if pl == nil {
		return 0, 0, cuda.ErrInvalidValue
	}
	size, ok := sess.allocs[ptr]
	if !ok {
		return 0, 0, cuda.ErrInvalidValue
	}
	if _, shared := sess.imported[ptr]; shared {
		// Re-exporting a zero-copy import would fork ownership of the
		// backing memory; consumers that need to forward a tensor copy it
		// into an owned allocation first.
		return 0, 0, cuda.ErrInvalidValue
	}
	if ptr == sess.bcastPtr {
		pl.DropBroadcastSource(sess.bcastKey)
		sess.bcastPtr, sess.bcastKey = 0, ""
	}
	a, err := ctx.DetachPhys(p, ptr)
	if err != nil {
		return 0, 0, err
	}
	delete(sess.allocs, ptr)
	sess.used -= size
	wire.PutBuf(sess.mem.Drop(ptr))
	if sess.persistPtr == ptr {
		sess.persistPtr = 0
	}
	x := pl.Export(strings.Clone(tag), a)
	return x.ID(), size, nil
}

// MemImport attaches an export published on this GPU server to the session.
// Producer and consumer on the same device share the physical pages through
// a VMM remap — zero bytes move. Across sibling devices of one machine the
// tensor is cloned at NVLink bandwidth. Exports living on other GPU servers
// are refused with ErrInvalidDevice; PeerCopy is the cross-server path.
func (s *Server) MemImport(p *sim.Proc, export uint64) (cuda.DevPtr, int64, error) {
	sess, ctx, err := s.open(p)
	if err != nil {
		return 0, 0, err
	}
	pl := s.cfg.Plane
	if pl == nil {
		return 0, 0, cuda.ErrInvalidValue
	}
	x, ok := pl.Fabric().Lookup(export)
	if !ok {
		// Missing export: consumed by someone else, abandoned, or stranded
		// and scavenged after its machine died. The typed sentinel crosses
		// the wire so chain drivers can fall back on errors.Is alone.
		return 0, 0, dataplane.ErrHandoffLost
	}
	if !x.LocalTo(pl) {
		return 0, 0, cuda.ErrInvalidDevice
	}
	if x.SourceFailed() {
		return 0, 0, dataplane.ErrHandoffLost
	}
	size := x.Size()
	if sess.used+size > sess.memLimit {
		return 0, 0, cuda.ErrMemoryAllocation
	}
	if x.Phys().Device() == ctx.Device() {
		ptr, err := ctx.AdoptMapped(p, x.Phys())
		if err != nil {
			return 0, 0, err
		}
		sess.allocs[ptr] = size
		sess.used += size
		sess.imported[ptr] = export
		pl.Fabric().BeginImport(x)
		return ptr, size, nil
	}
	// Sibling device on the same machine: the consumer gets an owned clone
	// over NVLink/P2P, and the export is consumed.
	ptr, err := s.Malloc(p, size)
	if err != nil {
		return 0, 0, err
	}
	dst, err := ctx.Backing(ptr)
	if err != nil {
		_ = s.Free(p, ptr)
		return 0, 0, err
	}
	gpu.CopyD2D(p, dst, x.Phys())
	pl.Fabric().NoteCrossDevImport()
	pl.Fabric().Consume(x)
	return ptr, size, nil
}

// PeerCopy pulls an export from another GPU server over the data-plane
// fabric into a fresh session allocation, consuming the export. The transfer
// is paced by the fabric bandwidth model — still far cheaper than a
// D2H + objstore + H2D bounce, which is the comparison `-exp pipeline`
// measures. A local export degrades to MemImport semantics.
func (s *Server) PeerCopy(p *sim.Proc, export uint64) (cuda.DevPtr, int64, error) {
	_, ctx, err := s.open(p)
	if err != nil {
		return 0, 0, err
	}
	pl := s.cfg.Plane
	if pl == nil {
		return 0, 0, cuda.ErrInvalidValue
	}
	x, ok := pl.Fabric().Lookup(export)
	if !ok {
		return 0, 0, dataplane.ErrHandoffLost
	}
	if x.LocalTo(pl) {
		return s.MemImport(p, export)
	}
	if x.SourceFailed() {
		return 0, 0, dataplane.ErrHandoffLost
	}
	size := x.Size()
	ptr, err := s.Malloc(p, size)
	if err != nil {
		return 0, 0, err
	}
	dst, err := ctx.Backing(ptr)
	if err != nil {
		_ = s.Free(p, ptr)
		return 0, 0, err
	}
	if err := pl.Fabric().PeerTransfer(p, dst, x.Phys()); err != nil {
		// Mid-handoff fabric fault: the destination holds garbage and the
		// export is untouched — release our half and let the consumer retry
		// the pull or fall back to the bounce path.
		_ = s.Free(p, ptr)
		return 0, 0, err
	}
	pl.Fabric().NotePeerCopy(size)
	pl.Fabric().Consume(x)
	return ptr, size, nil
}

// ModelBroadcast is the fan-out path for shared-base-model fleets: the first
// session per GPU server to ask for its function's model pays one host-staged
// read (exactly like a host-tier ModelAttach) and registers the copy as the
// machine's broadcast source; every later session clones it device-to-device
// while the source lives. N sessions cost one traversal of the host link
// instead of N.
func (s *Server) ModelBroadcast(p *sim.Proc) (cuda.DevPtr, int64, int, error) {
	sess, ctx, err := s.open(p)
	if err != nil {
		return 0, 0, 0, err
	}
	pl, c := s.cfg.Plane, s.cfg.Cache
	if pl == nil || c == nil {
		return 0, 0, dataplane.SrcMiss, nil
	}
	key := modelcache.StateKey(sess.fnID)
	for {
		if src, ok := pl.BroadcastSource(key.Name); ok {
			size := src.Size()
			ptr, err := s.Malloc(p, size)
			if err != nil {
				return 0, 0, 0, err
			}
			dst, err := ctx.Backing(ptr)
			if err != nil {
				_ = s.Free(p, ptr)
				return 0, 0, 0, err
			}
			gpu.CopyD2D(p, dst, src)
			pl.NoteBroadcastClone()
			return ptr, size, dataplane.SrcClone, nil
		}
		// Another session is staging the model right now: wait for its seed
		// instead of paying a second host read, then re-check for the source
		// (an aborted seed hands the seeder role to a waiter).
		if !pl.WaitSeed(p, key.Name) {
			break
		}
	}
	bytes, ok := c.Host().Get(key)
	if !ok {
		return 0, 0, dataplane.SrcMiss, nil
	}
	pl.BeginSeed(p, key.Name)
	defer pl.EndSeed(key.Name)
	ptr, err := s.Malloc(p, bytes)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := ctx.MemcpyH2D(p, ptr, gpu.HostBuffer{FP: key.FP, Size: bytes}, bytes); err != nil {
		_ = s.Free(p, ptr)
		return 0, 0, 0, err
	}
	a, err := ctx.Backing(ptr)
	if err != nil {
		_ = s.Free(p, ptr)
		return 0, 0, 0, err
	}
	pl.SetBroadcastSource(key.Name, a)
	sess.bcastPtr, sess.bcastKey = ptr, key.Name
	return ptr, bytes, dataplane.SrcHostSeed, nil
}

// releaseSessionPtr releases one session pointer with full data-plane
// bookkeeping: a broadcast source is deregistered first (later broadcasts
// re-seed from the host tier); a zero-copy import is detached — the mapping
// goes, the fabric decides whether the shared backing memory dies with it;
// everything else is a plain VMM free. Free and the end of the session both
// come through here, so no path can double-free fabric-owned memory and the
// allocation's uploaded bytes go with it on each.
func (s *Server) releaseSessionPtr(p *sim.Proc, ctx *cuda.Context, sess *session, ptr cuda.DevPtr) {
	wire.PutBuf(sess.mem.Drop(ptr))
	if pl := s.cfg.Plane; pl != nil && ptr == sess.bcastPtr && sess.bcastPtr != 0 {
		pl.DropBroadcastSource(sess.bcastKey)
		sess.bcastPtr, sess.bcastKey = 0, ""
	}
	if export, shared := sess.imported[ptr]; shared {
		delete(sess.imported, ptr)
		a, err := ctx.DetachPhys(p, ptr)
		if err != nil {
			return
		}
		f := s.cfg.Plane.Fabric()
		if x, ok := f.Lookup(export); ok {
			f.EndImport(x)
		} else {
			// The export already left the namespace; the detached backing
			// has no owner left.
			a.Free()
		}
		return
	}
	_ = ctx.Free(p, ptr)
}
