package store

import (
	"encoding/binary"
	"fmt"
	"time"

	"dgsf/internal/remoting/wire"
)

// Session phases. A session is born Pending, is bound to a server by the
// placement controller (Placed), runs its function (Running) and ends Done.
// Failed is terminal and means the control plane gave up — the fleet
// experiment asserts it never happens.
const (
	PhasePending = "Pending"
	PhasePlaced  = "Placed"
	PhaseRunning = "Running"
	PhaseDone    = "Done"
	PhaseFailed  = "Failed"
)

// GPUServerSpec is the desired state of one GPU server: its hardware shape
// and staging policy.
type GPUServerSpec struct {
	MemBytesPerGPU int64
	// StageBudget bounds the host-tier staged-model bytes the fleet reclaim
	// controller allows before deleting StagedModels (0: unlimited).
	StageBudget int64
}

// GPUServerStatus is the observed state its node agent publishes.
type GPUServerStatus struct {
	Healthy  bool
	Capacity int // live API servers
}

// GPUServer is the control-plane record of one GPU server.
type GPUServer struct {
	ObjectMeta
	Spec   GPUServerSpec
	Status GPUServerStatus
}

// Kind implements Resource.
func (g *GPUServer) Kind() Kind { return KindGPUServer }

// Meta implements Resource.
func (g *GPUServer) Meta() *ObjectMeta { return &g.ObjectMeta }

// DeepCopy implements Resource.
func (g *GPUServer) DeepCopy() Resource { c := *g; return &c }

// EncodeSpec implements Resource.
func (g *GPUServer) EncodeSpec(e *wire.Encoder) {
	e.I64(g.Spec.MemBytesPerGPU)
	e.I64(g.Spec.StageBudget)
}

// DecodeSpec implements Resource.
func (g *GPUServer) DecodeSpec(d *wire.Decoder) {
	g.Spec.MemBytesPerGPU = d.I64()
	g.Spec.StageBudget = d.I64()
}

// EncodeStatus implements Resource.
func (g *GPUServer) EncodeStatus(e *wire.Encoder) {
	e.Bool(g.Status.Healthy)
	e.Int(g.Status.Capacity)
}

// DecodeStatus implements Resource.
func (g *GPUServer) DecodeStatus(d *wire.Decoder) {
	g.Status.Healthy = d.Bool()
	g.Status.Capacity = d.Int()
}

// SessionSpec is one requested function invocation.
type SessionSpec struct {
	MemBytes int64
}

// SessionStatus tracks the invocation through the control plane.
type SessionStatus struct {
	Phase    string
	Server   string // GPUServer resource name, once placed
	Attempts int
	Reason   string // last failure reason, for diagnostics
	PlacedAt time.Duration
}

// Session is the control-plane record of one function invocation.
type Session struct {
	ObjectMeta
	Spec   SessionSpec
	Status SessionStatus
}

// Kind implements Resource.
func (s *Session) Kind() Kind { return KindSession }

// Meta implements Resource.
func (s *Session) Meta() *ObjectMeta { return &s.ObjectMeta }

// DeepCopy implements Resource.
func (s *Session) DeepCopy() Resource { c := *s; return &c }

// EncodeSpec implements Resource.
func (s *Session) EncodeSpec(e *wire.Encoder) { e.I64(s.Spec.MemBytes) }

// DecodeSpec implements Resource.
func (s *Session) DecodeSpec(d *wire.Decoder) { s.Spec.MemBytes = d.I64() }

// EncodeStatus implements Resource.
func (s *Session) EncodeStatus(e *wire.Encoder) {
	e.Str(s.Status.Phase)
	e.Str(s.Status.Server)
	e.Int(s.Status.Attempts)
	e.Str(s.Status.Reason)
	e.Dur(s.Status.PlacedAt)
}

// DecodeStatus implements Resource.
func (s *Session) DecodeStatus(d *wire.Decoder) {
	s.Status.Phase = phaseOf(d.BytesShared())
	s.Status.Server = d.Str()
	s.Status.Attempts = d.Int()
	s.Status.Reason = d.Str()
	s.Status.PlacedAt = d.Dur()
}

// Terminal reports whether the session reached a final phase.
func (s *Session) Terminal() bool {
	return s.Status.Phase == PhaseDone || s.Status.Phase == PhaseFailed
}

// StagedModelName returns the StagedModel resource name for an object
// staged on a server (names are per-kind unique, so the server is part of
// the key).
func StagedModelName(server, object string) string { return server + "/" + object }

// StagedModelSpec records one host-tier cache resident on one server.
type StagedModelSpec struct {
	Server string // GPUServer resource name
	Object string // host-tier key name (download or staged working set)
	Bytes  int64
}

// StagedModelStatus carries the recency the reclaim controller orders by.
type StagedModelStatus struct {
	Seq uint64 // LRU sequence: higher is fresher
}

// StagedModel is the control-plane record of one staged model/object.
type StagedModel struct {
	ObjectMeta
	Spec   StagedModelSpec
	Status StagedModelStatus
}

// Kind implements Resource.
func (m *StagedModel) Kind() Kind { return KindStagedModel }

// Meta implements Resource.
func (m *StagedModel) Meta() *ObjectMeta { return &m.ObjectMeta }

// DeepCopy implements Resource.
func (m *StagedModel) DeepCopy() Resource { c := *m; return &c }

// EncodeSpec implements Resource.
func (m *StagedModel) EncodeSpec(e *wire.Encoder) {
	e.Str(m.Spec.Server)
	e.Str(m.Spec.Object)
	e.I64(m.Spec.Bytes)
}

// DecodeSpec implements Resource.
func (m *StagedModel) DecodeSpec(d *wire.Decoder) {
	m.Spec.Server = d.Str()
	m.Spec.Object = d.Str()
	m.Spec.Bytes = d.I64()
}

// EncodeStatus implements Resource.
func (m *StagedModel) EncodeStatus(e *wire.Encoder) { e.U64(m.Status.Seq) }

// DecodeStatus implements Resource.
func (m *StagedModel) DecodeStatus(d *wire.Decoder) { m.Status.Seq = d.U64() }

// NewOfKind returns a zero resource of the named kind, for decoding wire
// objects back into typed form.
func NewOfKind(kind Kind) (Resource, error) {
	switch kind {
	case KindGPUServer:
		return &GPUServer{}, nil
	case KindSession:
		return &Session{}, nil
	case KindStagedModel:
		return &StagedModel{}, nil
	}
	return nil, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, kind)
}

// encodeResource appends r's wire form: kind and metadata, then the Spec and
// the Status section, each behind a length prefix patched in once the section
// is written. nil — a Gap event's object — encodes as the all-zero resource.
func encodeResource(e *wire.Encoder, r Resource) {
	var kind Kind
	var m ObjectMeta
	if r != nil {
		kind, m = r.Kind(), *r.Meta()
	}
	e.Str(string(kind))
	e.Str(m.Name)
	e.U64(m.UID)
	e.U64(m.ResourceVersion)
	e.U64(m.Generation)
	e.Dur(m.CreatedAt)
	for _, section := range []func(Resource, *wire.Encoder){Resource.EncodeSpec, Resource.EncodeStatus} {
		at := e.Len()
		e.U32(0)
		if r != nil {
			section(r, e)
		}
		binary.LittleEndian.PutUint32(e.Bytes()[at:], uint32(e.Len()-at-4))
	}
}

// kindOf maps a kind name as read off the wire onto the package's constant,
// so that decoding a resource allocates no string for it. A name this build
// does not know comes back as a string of its own, for NewOfKind to refuse.
func kindOf(name []byte) Kind {
	switch Kind(name) {
	case KindGPUServer:
		return KindGPUServer
	case KindSession:
		return KindSession
	case KindStagedModel:
		return KindStagedModel
	}
	return Kind(name)
}

// phaseOf does the same for a Session's phase, a status field every Session
// event carries.
func phaseOf(name []byte) string {
	switch string(name) {
	case PhasePending:
		return PhasePending
	case PhasePlaced:
		return PhasePlaced
	case PhaseRunning:
		return PhaseRunning
	case PhaseDone:
		return PhaseDone
	case PhaseFailed:
		return PhaseFailed
	}
	return string(name)
}

// readResource reads one resource's wire form off d and rebuilds the typed
// resource. An unknown kind or a section that does not decode is reported
// with d itself left sound, standing at the next value, so the caller
// chooses between skipping the resource and failing the message.
func readResource(d *wire.Decoder) (Resource, error) {
	kind := kindOf(d.BytesShared())
	m := ObjectMeta{Name: d.Str(), UID: d.U64(), ResourceVersion: d.U64(), Generation: d.U64(), CreatedAt: d.Dur()}
	// The sections are views of d's buffer: every DecodeSpec and DecodeStatus
	// copies what it keeps, so the resource still owns its strings.
	spec, status := d.BytesShared(), d.BytesShared()
	if err := d.Err(); err != nil {
		return nil, err
	}
	r, err := NewOfKind(kind)
	if err != nil {
		return nil, err
	}
	*r.Meta() = m
	sd := wire.GetDecoder(spec)
	defer wire.PutDecoder(sd)
	sd.SetInterner(d.Interner())
	r.DecodeSpec(sd)
	if err := sd.Err(); err != nil {
		return nil, fmt.Errorf("%w: bad spec encoding: %w", ErrBadRequest, err)
	}
	sd.Reset(status)
	r.DecodeStatus(sd)
	if err := sd.Err(); err != nil {
		return nil, fmt.Errorf("%w: bad status encoding: %w", ErrBadRequest, err)
	}
	return r, nil
}

// decodeResource reads one resource; one that does not decode fails d.
func decodeResource(d *wire.Decoder) Resource {
	r, err := readResource(d)
	if err != nil {
		d.Fail(err)
		return nil
	}
	return r
}

// minResourceLen is the wire length of the all-zero resource; it bounds what
// a decoded element count may pre-allocate.
const minResourceLen = 4 + 4 + 8 + 8 + 8 + 8 + 4 + 4

// The size hints estimate a value's wire length for the reply encoder the
// generated Dispatch grows before encoding: the fixed part, the two strings
// every resource has, and sectionsSizeHint for Spec and Status, which covers
// every kind with the names the fleet gives its objects. A low estimate
// costs the reply a second allocation, nothing else.
const sectionsSizeHint = 128

func resourceSizeHint(r Resource) int {
	if r == nil {
		return minResourceLen
	}
	return minResourceLen + len(r.Kind()) + len(r.Meta().Name) + sectionsSizeHint
}

func resourcesSizeHint(rs []Resource) int {
	n := 4
	for _, r := range rs {
		n += resourceSizeHint(r)
	}
	return n
}

func eventsSizeHint(evs []Event) int {
	n := 4
	for _, ev := range evs {
		n += 1 + 8 + resourceSizeHint(ev.Object)
	}
	return n
}

// encodeResources appends a length-prefixed resource slice.
func encodeResources(e *wire.Encoder, rs []Resource) {
	e.U32(uint32(len(rs)))
	for _, r := range rs {
		encodeResource(e, r)
	}
}

// decodeResources reads a length-prefixed resource slice; an entry that does
// not decode fails d.
func decodeResources(d *wire.Decoder) []Resource {
	n := int(d.U32())
	out := make([]Resource, 0, min(n, d.Remaining()/minResourceLen))
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, decodeResource(d))
	}
	if d.Err() != nil {
		return nil
	}
	return out
}

// encodeEvents appends a length-prefixed event slice.
func encodeEvents(e *wire.Encoder, evs []Event) {
	e.U32(uint32(len(evs)))
	for _, ev := range evs {
		e.U8(byte(ev.Type))
		e.U64(ev.RV)
		encodeResource(e, ev.Object)
	}
}

// decodeEvents reads a length-prefixed event slice. An event whose object
// does not decode (a kind this build does not know) is skipped rather than
// failing the pull: the stream stays alive and resync heals what was missed.
func decodeEvents(d *wire.Decoder) []Event { return decodeEventsInto(d, nil) }

// decodeEventsInto is decodeEvents appending to buf, an empty slice whose
// storage the caller lends. A message that does not decode leaves it empty.
func decodeEventsInto(d *wire.Decoder, buf []Event) []Event {
	n := int(d.U32())
	out := buf
	if hint := min(n, d.Remaining()/(1+8+minResourceLen)); cap(out) < hint {
		out = make([]Event, 0, hint)
	}
	for i := 0; i < n; i++ {
		ev := Event{Type: EventType(d.U8()), RV: d.U64()}
		r, err := readResource(d)
		if d.Err() != nil {
			return buf
		}
		if ev.Type != Gap { // a Gap carries no object
			if err != nil {
				continue
			}
			ev.Object = r
		}
		out = append(out, ev)
	}
	return out
}
