// Package storewire defines the wire-level representation of cluster
// control-plane resources: the flattened Object and Event records that ride
// the remoting protocol between a resource store and its clients, plus the
// typed error sentinels both sides share.
//
// It deliberately knows nothing about typed resources (internal/store owns
// those) so that the apigen-generated stubs in internal/store/storegen can
// depend on it without forming an import cycle with the store itself.
package storewire

import (
	"errors"
	"time"

	"dgsf/internal/remoting/wire"
)

// Typed store errors. They live here, not in internal/store, so that the
// generated wire stubs can translate them to and from status codes; the
// store package re-exports them under its own name.
var (
	// ErrConflict reports an Update/UpdateStatus/Delete whose
	// ResourceVersion no longer matches the stored object: someone else
	// wrote first. Callers re-read and retry.
	ErrConflict = errors.New("store: resource version conflict")
	// ErrNotFound reports an operation on a name that is not in the store.
	ErrNotFound = errors.New("store: resource not found")
	// ErrExists reports a Create for a name that is already present.
	ErrExists = errors.New("store: resource already exists")
	// ErrBadRequest reports a malformed operation: empty name, unknown
	// kind, or an attempt to change immutable metadata (name, UID).
	ErrBadRequest = errors.New("store: bad request")
	// ErrHalted reports an operation through a halted store handle — the
	// fault framework's way of crashing a controller mid-reconcile.
	ErrHalted = errors.New("store: handle halted")
)

// Status codes carried on the wire in place of error values.
const (
	codeOK = iota
	codeConflict
	codeNotFound
	codeExists
	codeBadRequest
	codeHalted
	codeInternal
)

// Code translates a store error into its wire status code.
func Code(err error) int32 {
	switch {
	case err == nil:
		return codeOK
	case errors.Is(err, ErrConflict):
		return codeConflict
	case errors.Is(err, ErrNotFound):
		return codeNotFound
	case errors.Is(err, ErrExists):
		return codeExists
	case errors.Is(err, ErrBadRequest):
		return codeBadRequest
	case errors.Is(err, ErrHalted):
		return codeHalted
	default:
		return codeInternal
	}
}

// ErrInternal reports a store-side failure that has no typed sentinel.
var ErrInternal = errors.New("store: internal error")

// FromCode translates a wire status code back into the matching sentinel.
func FromCode(code int32) error {
	switch code {
	case codeOK:
		return nil
	case codeConflict:
		return ErrConflict
	case codeNotFound:
		return ErrNotFound
	case codeExists:
		return ErrExists
	case codeBadRequest:
		return ErrBadRequest
	case codeHalted:
		return ErrHalted
	default:
		return ErrInternal
	}
}

// Object is the flattened wire form of one stored resource: metadata plus
// the opaque encoded Spec and Status sections. The store's typed resources
// encode themselves into this form at the remoting boundary.
type Object struct {
	Kind            string
	Name            string
	UID             uint64
	ResourceVersion uint64
	Generation      uint64
	CreatedAt       time.Duration // virtual creation time
	Spec            []byte
	Status          []byte
}

// Encode serializes the object.
func (o *Object) Encode(e *wire.Encoder) {
	e.Str(o.Kind)
	e.Str(o.Name)
	e.U64(o.UID)
	e.U64(o.ResourceVersion)
	e.U64(o.Generation)
	e.Dur(o.CreatedAt)
	e.BytesField(o.Spec)
	e.BytesField(o.Status)
}

// DecodeObject deserializes one object.
func DecodeObject(d *wire.Decoder) Object {
	return Object{
		Kind:            d.Str(),
		Name:            d.Str(),
		UID:             d.U64(),
		ResourceVersion: d.U64(),
		Generation:      d.U64(),
		CreatedAt:       d.Dur(),
		Spec:            d.BytesField(),
		Status:          d.BytesField(),
	}
}

// EncodeObjects serializes a length-prefixed object slice.
func EncodeObjects(e *wire.Encoder, objs []Object) {
	e.U32(uint32(len(objs)))
	for i := range objs {
		objs[i].Encode(e)
	}
}

// DecodeObjects deserializes a length-prefixed object slice.
func DecodeObjects(d *wire.Decoder) []Object {
	n := int(d.U32())
	if d.Err() != nil {
		return nil
	}
	var out []Object
	for i := 0; i < n; i++ {
		o := DecodeObject(d)
		if d.Err() != nil {
			return nil
		}
		out = append(out, o)
	}
	return out
}

// Event types delivered on watch streams.
const (
	EventAdded    = byte(1)
	EventModified = byte(2)
	EventDeleted  = byte(3)
	// EventGap reports that the stream lost continuity before this point.
	// Its Obj is empty; a client that predates it fails to decode that and
	// skips the event, which is the old (silent) behaviour.
	EventGap = byte(4)
)

// Event is one watch notification: the object state after the change (for
// Deleted, its last state), stamped with the write's resource version.
type Event struct {
	Type byte
	RV   uint64
	Obj  Object
}

// Encode serializes the event.
func (ev *Event) Encode(e *wire.Encoder) {
	e.U8(ev.Type)
	e.U64(ev.RV)
	ev.Obj.Encode(e)
}

// DecodeEvent deserializes one event.
func DecodeEvent(d *wire.Decoder) Event {
	return Event{Type: d.U8(), RV: d.U64(), Obj: DecodeObject(d)}
}

// EncodeEvents serializes a length-prefixed event slice.
func EncodeEvents(e *wire.Encoder, evs []Event) {
	e.U32(uint32(len(evs)))
	for i := range evs {
		evs[i].Encode(e)
	}
}

// DecodeEvents deserializes a length-prefixed event slice.
func DecodeEvents(d *wire.Decoder) []Event {
	n := int(d.U32())
	if d.Err() != nil {
		return nil
	}
	var out []Event
	for i := 0; i < n; i++ {
		ev := DecodeEvent(d)
		if d.Err() != nil {
			return nil
		}
		out = append(out, ev)
	}
	return out
}
