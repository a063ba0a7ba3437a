// Package store mirrors the resource-store types the analyzer keys on.
package store

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
