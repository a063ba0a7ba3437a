// Code generated by cmd/apigen. DO NOT EDIT.

// The store's wire protocol: call IDs, request/response message types, the
// Client a remote handle is built on, and the DispatchTo function that serves
// a Store. Regenerate with:
//
//	go run ./cmd/apigen

package store

import (
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// Call identifiers. ID 0 is reserved.
const (
	CallGet               uint16 = 1
	CallList              uint16 = 2
	CallCreate            uint16 = 3
	CallUpdate            uint16 = 4
	CallUpdateStatus      uint16 = 5
	CallUpdateStatusAsync uint16 = 6
	CallDelete            uint16 = 7
	CallPullEvents        uint16 = 8
)

// NumCalls is the number of generated calls.
const NumCalls = 8

// callNames maps IDs to API names for diagnostics and statistics.
var callNames = map[uint16]string{
	CallGet:               "Get",
	CallList:              "List",
	CallCreate:            "Create",
	CallUpdate:            "Update",
	CallUpdateStatus:      "UpdateStatus",
	CallUpdateStatusAsync: "UpdateStatusAsync",
	CallDelete:            "Delete",
	CallPullEvents:        "PullEvents",
}

// CallName returns the API name for a call ID.
func CallName(id uint16) string {
	if n, ok := callNames[id]; ok {
		return n
	}
	return "?"
}

// API is the remoted store surface, implemented by the in-process Store
// (which DispatchTo calls directly) and by Client.
type API interface {
	// Get fetches one resource by kind and name.
	Get(p *sim.Proc, kind Kind, name string) (obj Resource, err error)

	// List lists a kind's resources in name order, with the store's current resource version.
	List(p *sim.Proc, kind Kind) (objs []Resource, rV uint64, err error)

	// Create inserts a new resource, returning the stored form (fresh UID, RV, generation).
	Create(p *sim.Proc, obj Resource) (stored Resource, err error)

	// Update replaces a resource's spec and status under optimistic concurrency.
	Update(p *sim.Proc, obj Resource) (stored Resource, err error)

	// UpdateStatus replaces only a resource's status under optimistic concurrency.
	UpdateStatus(p *sim.Proc, obj Resource) (stored Resource, err error)

	// UpdateStatusAsync is the fire-and-forget status write on the one-way lane; conflicts are dropped, resync heals.
	UpdateStatusAsync(p *sim.Proc, obj Resource) (err error)

	// Delete removes a resource; rv 0 deletes unconditionally, any other value must match.
	Delete(p *sim.Proc, kind Kind, name string, rV uint64) (err error)

	// PullEvents is the long-poll watch: returns up to max events after fromRV, waiting up to wait for the first.
	PullEvents(p *sim.Proc, kind Kind, fromRV uint64, max int, wait time.Duration) (events []Event, nextRV uint64, err error)
}

// Client implements API by remoting every call over a transport.
// One-way calls need the transport's async submission lane: without it
// they fail with remoting.ErrNoLane.
type Client struct {
	T     remoting.Caller
	names wire.Interner // its replies' strings: the same few names, over and over
}

// --- Get ---

// GetReq is the request message of Get.
type GetReq struct {
	Kind Kind
	Name string
}

// Encode serializes the request.
func (m *GetReq) Encode(e *wire.Encoder) {
	e.Str(string(m.Kind))
	e.Str(m.Name)
}

// Decode deserializes the request.
func (m *GetReq) Decode(d *wire.Decoder) {
	m.Kind = kindOf(d.BytesShared())
	m.Name = d.Str()
}

// GetResp is the response message of Get.
type GetResp struct {
	Obj Resource
}

// Encode serializes the response.
func (m *GetResp) Encode(e *wire.Encoder) {
	encodeResource(e, m.Obj)
}

// Decode deserializes the response.
func (m *GetResp) Decode(d *wire.Decoder) {
	m.Obj = decodeResource(d)
}

// AppendGetCall appends an encoded Get call (ID + request) to e.
func AppendGetCall(e *wire.Encoder, kind Kind, name string) {
	e.U16(CallGet)
	(&GetReq{Kind: kind, Name: name}).Encode(e)
}

// Get fetches one resource by kind and name.
func (c *Client) Get(p *sim.Proc, kind Kind, name string) (obj Resource, err error) {
	enc := wire.GetEncoder()
	AppendGetCall(enc, kind, name)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	dec.SetInterner(&c.names)
	var resp GetResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	obj = resp.Obj
	return
}

// --- List ---

// ListReq is the request message of List.
type ListReq struct {
	Kind Kind
}

// Encode serializes the request.
func (m *ListReq) Encode(e *wire.Encoder) {
	e.Str(string(m.Kind))
}

// Decode deserializes the request.
func (m *ListReq) Decode(d *wire.Decoder) {
	m.Kind = kindOf(d.BytesShared())
}

// ListResp is the response message of List.
type ListResp struct {
	Objs []Resource
	RV   uint64
}

// Encode serializes the response.
func (m *ListResp) Encode(e *wire.Encoder) {
	encodeResources(e, m.Objs)
	e.U64(m.RV)
}

// Decode deserializes the response.
func (m *ListResp) Decode(d *wire.Decoder) {
	m.Objs = decodeResources(d)
	m.RV = d.U64()
}

// AppendListCall appends an encoded List call (ID + request) to e.
func AppendListCall(e *wire.Encoder, kind Kind) {
	e.U16(CallList)
	(&ListReq{Kind: kind}).Encode(e)
}

// List lists a kind's resources in name order, with the store's current resource version.
func (c *Client) List(p *sim.Proc, kind Kind) (objs []Resource, rV uint64, err error) {
	enc := wire.GetEncoder()
	AppendListCall(enc, kind)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	dec.SetInterner(&c.names)
	var resp ListResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	objs = resp.Objs
	rV = resp.RV
	return
}

// --- Create ---

// CreateReq is the request message of Create.
type CreateReq struct {
	Obj Resource
}

// Encode serializes the request.
func (m *CreateReq) Encode(e *wire.Encoder) {
	encodeResource(e, m.Obj)
}

// Decode deserializes the request.
func (m *CreateReq) Decode(d *wire.Decoder) {
	m.Obj = decodeResource(d)
}

// CreateResp is the response message of Create.
type CreateResp struct {
	Stored Resource
}

// Encode serializes the response.
func (m *CreateResp) Encode(e *wire.Encoder) {
	encodeResource(e, m.Stored)
}

// Decode deserializes the response.
func (m *CreateResp) Decode(d *wire.Decoder) {
	m.Stored = decodeResource(d)
}

// AppendCreateCall appends an encoded Create call (ID + request) to e.
func AppendCreateCall(e *wire.Encoder, obj Resource) {
	e.U16(CallCreate)
	(&CreateReq{Obj: obj}).Encode(e)
}

// Create inserts a new resource, returning the stored form (fresh UID, RV, generation).
func (c *Client) Create(p *sim.Proc, obj Resource) (stored Resource, err error) {
	enc := wire.GetEncoder()
	AppendCreateCall(enc, obj)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	dec.SetInterner(&c.names)
	var resp CreateResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	stored = resp.Stored
	return
}

// --- Update ---

// UpdateReq is the request message of Update.
type UpdateReq struct {
	Obj Resource
}

// Encode serializes the request.
func (m *UpdateReq) Encode(e *wire.Encoder) {
	encodeResource(e, m.Obj)
}

// Decode deserializes the request.
func (m *UpdateReq) Decode(d *wire.Decoder) {
	m.Obj = decodeResource(d)
}

// UpdateResp is the response message of Update.
type UpdateResp struct {
	Stored Resource
}

// Encode serializes the response.
func (m *UpdateResp) Encode(e *wire.Encoder) {
	encodeResource(e, m.Stored)
}

// Decode deserializes the response.
func (m *UpdateResp) Decode(d *wire.Decoder) {
	m.Stored = decodeResource(d)
}

// AppendUpdateCall appends an encoded Update call (ID + request) to e.
func AppendUpdateCall(e *wire.Encoder, obj Resource) {
	e.U16(CallUpdate)
	(&UpdateReq{Obj: obj}).Encode(e)
}

// Update replaces a resource's spec and status under optimistic concurrency.
func (c *Client) Update(p *sim.Proc, obj Resource) (stored Resource, err error) {
	enc := wire.GetEncoder()
	AppendUpdateCall(enc, obj)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	dec.SetInterner(&c.names)
	var resp UpdateResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	stored = resp.Stored
	return
}

// --- UpdateStatus ---

// UpdateStatusReq is the request message of UpdateStatus.
type UpdateStatusReq struct {
	Obj Resource
}

// Encode serializes the request.
func (m *UpdateStatusReq) Encode(e *wire.Encoder) {
	encodeResource(e, m.Obj)
}

// Decode deserializes the request.
func (m *UpdateStatusReq) Decode(d *wire.Decoder) {
	m.Obj = decodeResource(d)
}

// UpdateStatusResp is the response message of UpdateStatus.
type UpdateStatusResp struct {
	Stored Resource
}

// Encode serializes the response.
func (m *UpdateStatusResp) Encode(e *wire.Encoder) {
	encodeResource(e, m.Stored)
}

// Decode deserializes the response.
func (m *UpdateStatusResp) Decode(d *wire.Decoder) {
	m.Stored = decodeResource(d)
}

// AppendUpdateStatusCall appends an encoded UpdateStatus call (ID + request) to e.
func AppendUpdateStatusCall(e *wire.Encoder, obj Resource) {
	e.U16(CallUpdateStatus)
	(&UpdateStatusReq{Obj: obj}).Encode(e)
}

// UpdateStatus replaces only a resource's status under optimistic concurrency.
func (c *Client) UpdateStatus(p *sim.Proc, obj Resource) (stored Resource, err error) {
	enc := wire.GetEncoder()
	AppendUpdateStatusCall(enc, obj)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	dec.SetInterner(&c.names)
	var resp UpdateStatusResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	stored = resp.Stored
	return
}

// --- UpdateStatusAsync ---

// UpdateStatusAsyncReq is the request message of UpdateStatusAsync.
type UpdateStatusAsyncReq struct {
	Obj Resource
}

// Encode serializes the request.
func (m *UpdateStatusAsyncReq) Encode(e *wire.Encoder) {
	encodeResource(e, m.Obj)
}

// Decode deserializes the request.
func (m *UpdateStatusAsyncReq) Decode(d *wire.Decoder) {
	m.Obj = decodeResource(d)
}

// UpdateStatusAsyncResp is the response message of UpdateStatusAsync.
type UpdateStatusAsyncResp struct {
}

// Encode serializes the response.
func (m *UpdateStatusAsyncResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *UpdateStatusAsyncResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendUpdateStatusAsyncCall appends an encoded UpdateStatusAsync call (ID + request) to e.
func AppendUpdateStatusAsyncCall(e *wire.Encoder, obj Resource) {
	e.U16(CallUpdateStatusAsync)
	(&UpdateStatusAsyncReq{Obj: obj}).Encode(e)
}

// UpdateStatusAsync is the fire-and-forget status write on the one-way lane; conflicts are dropped, resync heals.
func (c *Client) UpdateStatusAsync(p *sim.Proc, obj Resource) (err error) {
	a, err := remoting.Lane[remoting.AsyncCaller](c.T)
	if err != nil {
		return
	}
	enc := wire.GetEncoder()
	AppendUpdateStatusAsyncCall(enc, obj)
	// One-way lane: the message outlives this call, so it travels in a
	// buffer of the payload pool, which Submit takes and the message's
	// consumer returns.
	req := append(wire.GetBuf(enc.Len()), enc.Bytes()...)
	wire.PutEncoder(enc)
	return a.Submit(p, req, int64(0))
}

// --- Delete ---

// DeleteReq is the request message of Delete.
type DeleteReq struct {
	Kind Kind
	Name string
	RV   uint64
}

// Encode serializes the request.
func (m *DeleteReq) Encode(e *wire.Encoder) {
	e.Str(string(m.Kind))
	e.Str(m.Name)
	e.U64(m.RV)
}

// Decode deserializes the request.
func (m *DeleteReq) Decode(d *wire.Decoder) {
	m.Kind = kindOf(d.BytesShared())
	m.Name = d.Str()
	m.RV = d.U64()
}

// DeleteResp is the response message of Delete.
type DeleteResp struct {
}

// Encode serializes the response.
func (m *DeleteResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *DeleteResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendDeleteCall appends an encoded Delete call (ID + request) to e.
func AppendDeleteCall(e *wire.Encoder, kind Kind, name string, rV uint64) {
	e.U16(CallDelete)
	(&DeleteReq{Kind: kind, Name: name, RV: rV}).Encode(e)
}

// Delete removes a resource; rv 0 deletes unconditionally, any other value must match.
func (c *Client) Delete(p *sim.Proc, kind Kind, name string, rV uint64) (err error) {
	enc := wire.GetEncoder()
	AppendDeleteCall(enc, kind, name, rV)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- PullEvents ---

// PullEventsReq is the request message of PullEvents.
type PullEventsReq struct {
	Kind   Kind
	FromRV uint64
	Max    int
	Wait   time.Duration
}

// Encode serializes the request.
func (m *PullEventsReq) Encode(e *wire.Encoder) {
	e.Str(string(m.Kind))
	e.U64(m.FromRV)
	e.Int(m.Max)
	e.Dur(m.Wait)
}

// Decode deserializes the request.
func (m *PullEventsReq) Decode(d *wire.Decoder) {
	m.Kind = kindOf(d.BytesShared())
	m.FromRV = d.U64()
	m.Max = d.Int()
	m.Wait = d.Dur()
}

// PullEventsResp is the response message of PullEvents.
type PullEventsResp struct {
	Events []Event
	NextRV uint64
}

// Encode serializes the response.
func (m *PullEventsResp) Encode(e *wire.Encoder) {
	encodeEvents(e, m.Events)
	e.U64(m.NextRV)
}

// Decode deserializes the response.
func (m *PullEventsResp) Decode(d *wire.Decoder) {
	m.Events = decodeEvents(d)
	m.NextRV = d.U64()
}

// AppendPullEventsCall appends an encoded PullEvents call (ID + request) to e.
func AppendPullEventsCall(e *wire.Encoder, kind Kind, fromRV uint64, max int, wait time.Duration) {
	e.U16(CallPullEvents)
	(&PullEventsReq{Kind: kind, FromRV: fromRV, Max: max, Wait: wait}).Encode(e)
}

// PullEvents is the long-poll watch: returns up to max events after fromRV, waiting up to wait for the first.
func (c *Client) PullEvents(p *sim.Proc, kind Kind, fromRV uint64, max int, wait time.Duration) (events []Event, nextRV uint64, err error) {
	enc := wire.GetEncoder()
	AppendPullEventsCall(enc, kind, fromRV, max, wait)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	dec.SetInterner(&c.names)
	var resp PullEventsResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	events = resp.Events
	nextRV = resp.NextRV
	return
}

// DispatchTo is the dispatch body: it decodes one call from payload,
// executes it against the backend and appends the encoded response —
// the status word, then the result fields of a call that succeeded — to
// enc. Nothing of payload is referenced once it returns.
func DispatchTo(p *sim.Proc, b API, enc *wire.Encoder, payload []byte) {
	dec := wire.GetDecoder(payload)
	defer wire.PutDecoder(dec)
	switch id := dec.U16(); id {
	case CallGet:
		var req GetReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		obj, err := b.Get(p, req.Kind, req.Name)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return
		}
		enc.Grow(4 + resourceSizeHint(obj))
		enc.I32(0)
		(&GetResp{Obj: obj}).Encode(enc)
		return
	case CallList:
		var req ListReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		objs, rV, err := b.List(p, req.Kind)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return
		}
		enc.Grow(12 + resourcesSizeHint(objs))
		enc.I32(0)
		(&ListResp{Objs: objs, RV: rV}).Encode(enc)
		return
	case CallCreate:
		var req CreateReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		stored, err := b.Create(p, req.Obj)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return
		}
		enc.Grow(4 + resourceSizeHint(stored))
		enc.I32(0)
		(&CreateResp{Stored: stored}).Encode(enc)
		return
	case CallUpdate:
		var req UpdateReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		stored, err := b.Update(p, req.Obj)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return
		}
		enc.Grow(4 + resourceSizeHint(stored))
		enc.I32(0)
		(&UpdateResp{Stored: stored}).Encode(enc)
		return
	case CallUpdateStatus:
		var req UpdateStatusReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		stored, err := b.UpdateStatus(p, req.Obj)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return
		}
		enc.Grow(4 + resourceSizeHint(stored))
		enc.I32(0)
		(&UpdateStatusResp{Stored: stored}).Encode(enc)
		return
	case CallUpdateStatusAsync:
		var req UpdateStatusAsyncReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.UpdateStatusAsync(p, req.Obj)
		enc.I32(int32(cuda.Code(err)))
		return
	case CallDelete:
		var req DeleteReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.Delete(p, req.Kind, req.Name, req.RV)
		enc.I32(int32(cuda.Code(err)))
		return
	case CallPullEvents:
		var req PullEventsReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		events, nextRV, err := b.PullEvents(p, req.Kind, req.FromRV, req.Max, req.Wait)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return
		}
		enc.Grow(12 + eventsSizeHint(events))
		enc.I32(0)
		(&PullEventsResp{Events: events, NextRV: nextRV}).Encode(enc)
		return
	}
	// An unknown call, or a request that does not decode.
	enc.I32(int32(cuda.Code(ErrBadRequest)))
	return
}
