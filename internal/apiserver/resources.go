package apiserver

import (
	"cmp"
	"slices"

	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/sim"
)

// The session's resource table. Every handle a function holds besides its
// memory — stream, event, cuDNN, cuBLAS, descriptor — is context-dependent
// state kept "pre-replicated per context and translated through a map"
// (§V-B): the function gets a stable virtual handle, and one table entry knows
// its kind and the concrete handle behind it on each device. Create,
// translate, destroy, migrate and release are each written once, over it.

// kind is the type of a resource. Values order the release and replication
// walks; kDNN and kBLAS line up with cudalibs.Kind.
type kind uint8

const (
	kStream kind = iota
	kEvent
	kDNN
	kBLAS
	kDesc

	poolSize = 1 // handles of each library a pre-warmed server holds
)

func (k kind) lib() cudalibs.Kind { return cudalibs.Kind(k - kDNN) }

// virtBase is the namespace a kind's virtual handles are minted in, by adding
// the session's shared counter. A descriptor is host-side state no context
// owns, so the function holds the library's own value.
var virtBase = [...]uint64{kStream: 0x7000_0000, kEvent: 0x7100_0000, kDNN: 0x7200_0000, kBLAS: 0x7300_0000, kDesc: 0}

// resource is one table entry: the concrete handle behind a virtual one. A
// library handle or descriptor exists once, whatever the device: real. A
// stream or event belongs to a context, so it has a replica in each one the
// session has run in: replicas[dev], 0 where none. Only those allocate; the
// descriptors an unoptimized guest creates by the hundred cost a map entry.
type resource struct {
	kind     kind
	real     uint64
	replicas []uint64
}

// create makes a resource of kind k in the current context and enters it in
// the table; dk is the descriptor kind, for kDesc.
func create[H ~uint64](s *Server, p *sim.Proc, k kind, dk cudalibs.DescriptorKind) (H, error) {
	sess, ctx, err := s.open(p)
	if err != nil {
		return 0, err
	}
	real, err := s.newReal(p, k, dk, ctx)
	if err != nil {
		return 0, err
	}
	virt := real
	if virtBase[k] != 0 {
		sess.nextVirt++
		virt = virtBase[k] + sess.nextVirt
	}
	r := resource{kind: k, real: real}
	if k == kStream || k == kEvent {
		r = resource{kind: k, replicas: make([]uint64, len(s.rt.Devices()))}
		r.replicas[s.curDev] = real
	}
	sess.res[virt] = r
	return H(virt), nil
}

// newReal creates the concrete handle of a kind in ctx. A library handle
// comes from the pre-created pool while it lasts, "simply returning one of them
// when the API is called" (§V-A); else it pays the full creation cost.
func (s *Server) newReal(p *sim.Proc, k kind, dk cudalibs.DescriptorKind, ctx *cuda.Context) (uint64, error) {
	switch k {
	case kStream:
		h, err := ctx.StreamCreate(p)
		return uint64(h), err
	case kEvent:
		h, err := ctx.EventCreate(p)
		return uint64(h), err
	case kDesc:
		d, err := s.libs.CreateDescriptor(p, dk)
		return uint64(d), err
	}
	idle := s.idle[k.lib()]
	if n := len(idle); n > 0 {
		s.idle[k.lib()] = idle[:n-1]
		return idle[n-1], nil
	}
	return s.libs.Create(p, k.lib(), ctx)
}

// real translates a virtual handle of kind k to the concrete handle on the
// current device: one map lookup, which is all a call on the hot path pays.
func (s *Server) real(k kind, virt uint64) (uint64, error) {
	if s.sess == nil {
		return 0, cuda.ErrNotInitialized
	}
	r, ok := s.sess.res[virt]
	if ok && r.replicas != nil {
		r.real = r.replicas[s.curDev]
	}
	if !ok || r.kind != k || r.real == 0 {
		return 0, cuda.ErrInvalidResourceHandle
	}
	return r.real, nil
}

// stream translates a virtual stream handle; 0 is the default stream of
// whatever context is current.
func (s *Server) stream(virt cuda.StreamHandle) (cuda.StreamHandle, error) {
	if virt == 0 {
		return 0, nil
	}
	real, err := s.real(kStream, uint64(virt))
	return cuda.StreamHandle(real), err
}

// drop serves the function's own destroy calls: the entry leaves the table
// and its resource is destroyed as at the end of a session.
func (s *Server) drop(p *sim.Proc, k kind, virt uint64) error {
	sess, _, err := s.open(p)
	if err != nil {
		return err
	}
	r, ok := sess.res[virt]
	if !ok || r.kind != k {
		return cuda.ErrInvalidResourceHandle
	}
	delete(sess.res, virt)
	s.destroy(p, r, true)
	return nil
}

// destroy releases a resource, a stream or event in every context holding a
// replica, devices ascending. A library handle goes back to the pool if pool
// is set and the pool has room, and is destroyed otherwise.
func (s *Server) destroy(p *sim.Proc, r resource, pool bool) {
	for dev, h := range r.replicas {
		if h == 0 {
			continue // and no context either: asking for one would create it
		}
		ctx, err := s.rt.Context(p, dev)
		if err != nil {
			continue
		}
		if r.kind == kStream {
			_ = ctx.StreamDestroy(p, cuda.StreamHandle(h))
		} else {
			_ = ctx.EventDestroy(p, cuda.EventHandle(h))
		}
	}
	switch r.kind {
	case kDesc:
		_ = s.libs.DestroyDescriptor(p, cudalibs.Descriptor(r.real))
	case kDNN, kBLAS:
		if k := r.kind.lib(); pool && s.cfg.PoolHandles && len(s.idle[k]) < poolSize {
			s.idle[k] = append(s.idle[k], r.real)
		} else {
			_ = s.libs.Destroy(p, k, r.real)
		}
	}
}

// ordered returns the table's virtual handles in the order the release and
// replication walks visit them: by kind, ascending within a kind.
func (sess *session) ordered() []uint64 {
	keys := sortedKeys(sess.res)
	slices.SortStableFunc(keys, func(a, b uint64) int { return cmp.Compare(sess.res[a].kind, sess.res[b].kind) })
	return keys
}

// replicateTo makes every resource of the session, and the idle pool, usable
// in ctx, the context on device target the server is about to move to (§V-D).
// A stream or event gets a fresh replica there unless an earlier visit left
// one; a library handle is rebound, its workspace moving devices; a
// descriptor is host-side state and needs nothing.
func (s *Server) replicateTo(p *sim.Proc, target int, ctx *cuda.Context) error {
	if sess := s.sess; sess != nil {
		for _, virt := range sess.ordered() {
			r := sess.res[virt]
			switch {
			case r.replicas != nil:
				if r.replicas[target] != 0 {
					continue
				}
				h, err := s.newReal(p, r.kind, 0, ctx)
				if err != nil {
					return err
				}
				r.replicas[target] = h
			case r.kind != kDesc:
				if err := s.libs.Rebind(p, r.kind.lib(), r.real, ctx); err != nil {
					return err
				}
			}
		}
	}
	for k := range s.idle {
		for _, h := range s.idle[k] {
			if err := s.libs.Rebind(p, cudalibs.Kind(k), h, ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortedKeys returns m's keys in ascending order: a walk that emitted simulated
// events in map order would differ from run to run on one seed (simdeterminism).
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
