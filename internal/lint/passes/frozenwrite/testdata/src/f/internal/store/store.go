// Package store mirrors the resource-store types the analyzer keys on.
package store

import "f/internal/sim"

// Kind names a resource keyspace.
type Kind string

// ObjectMeta is the common metadata of every stored resource.
type ObjectMeta struct {
	Name            string
	ResourceVersion uint64
}

// Decoder stands in for the wire decoder.
type Decoder struct{}

// Resource is one typed control-plane object.
type Resource interface {
	Kind() Kind
	Meta() *ObjectMeta
	DeepCopy() Resource
	DecodeStatus(d *Decoder)
}

// SessionStatus has a string, GPUServerStatus has none: copying the second
// severs all aliasing, and a write through it is a write all the same.
type SessionStatus struct {
	Phase    string
	Attempts int
}

// Session is a resource.
type Session struct {
	ObjectMeta
	Status SessionStatus
}

func (s *Session) Kind() Kind              { return "Session" }
func (s *Session) Meta() *ObjectMeta       { return &s.ObjectMeta }
func (s *Session) DeepCopy() Resource      { c := *s; return &c }
func (s *Session) DecodeStatus(d *Decoder) { s.Status.Phase = "" }

// GPUServerStatus is all scalars.
type GPUServerStatus struct {
	Active int
}

// GPUServer is a resource.
type GPUServer struct {
	ObjectMeta
	Status GPUServerStatus
}

func (g *GPUServer) Kind() Kind              { return "GPUServer" }
func (g *GPUServer) Meta() *ObjectMeta       { return &g.ObjectMeta }
func (g *GPUServer) DeepCopy() Resource      { c := *g; return &c }
func (g *GPUServer) DecodeStatus(d *Decoder) { g.Status.Active = 0 }

// Event is one watch notification; Object is shared and frozen.
type Event struct {
	Type   byte
	RV     uint64
	Object Resource
}

// Interface is the store API: reads and writes on it hand out frozen objects,
// and its writes take ownership of their argument.
type Interface interface {
	Get(p *sim.Proc, kind Kind, name string) (Resource, error)
	List(p *sim.Proc, kind Kind) ([]Resource, uint64, error)
	Create(p *sim.Proc, r Resource) (Resource, error)
	Update(p *sim.Proc, r Resource) (Resource, error)
	UpdateStatus(p *sim.Proc, r Resource) (Resource, error)
	UpdateStatusAsync(p *sim.Proc, r Resource) error
}

// Store is the in-process implementation.
type Store struct {
	objs map[string]Resource
}

func (s *Store) Get(p *sim.Proc, kind Kind, name string) (Resource, error) { return s.objs[name], nil }
func (s *Store) List(p *sim.Proc, kind Kind) ([]Resource, uint64, error) {
	return []Resource{s.objs["a"]}, 1, nil
}
func (s *Store) Create(p *sim.Proc, r Resource) (Resource, error)       { return s.put(r), nil }
func (s *Store) Update(p *sim.Proc, r Resource) (Resource, error)       { return s.put(r), nil }
func (s *Store) UpdateStatus(p *sim.Proc, r Resource) (Resource, error) { return s.put(r), nil }
func (s *Store) UpdateStatusAsync(p *sim.Proc, r Resource) error        { s.put(r); return nil }

func (s *Store) put(r Resource) Resource {
	s.objs[r.Meta().Name] = r
	return r
}
