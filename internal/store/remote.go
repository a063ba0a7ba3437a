package store

import (
	"encoding/binary"
	"time"

	"dgsf/internal/remoting"
	"dgsf/internal/sim"
	"dgsf/internal/store/storegen"
	"dgsf/internal/store/storewire"
)

// This file makes the store remotable: Serve exposes a Store on a remoting
// listener through the apigen-generated dispatch (storegen), and Remote is
// the client-side Interface implementation a controller uses when the store
// lives elsewhere. Synchronous CRUD rides the request/response lane;
// UpdateStatusAsync rides the one-way submission lane; watches are long-poll
// pulls pumped into an ordinary Watch queue.

// apiAdapter implements storegen.StoreAPI over the in-process store.
type apiAdapter struct{ s *Store }

func (a apiAdapter) StoreGet(p *sim.Proc, kind, name string) (storewire.Object, error) {
	r, err := a.s.Get(p, Kind(kind), name)
	if err != nil {
		return storewire.Object{}, err
	}
	return ToWire(r), nil
}

func (a apiAdapter) StoreList(p *sim.Proc, kind string) ([]storewire.Object, uint64, error) {
	rs, rv, err := a.s.List(p, Kind(kind))
	if err != nil {
		return nil, 0, err
	}
	objs := make([]storewire.Object, 0, len(rs))
	for _, r := range rs {
		objs = append(objs, ToWire(r))
	}
	return objs, rv, nil
}

func (a apiAdapter) StoreCreate(p *sim.Proc, obj storewire.Object) (storewire.Object, error) {
	r, err := FromWire(obj)
	if err != nil {
		return storewire.Object{}, err
	}
	stored, err := a.s.Create(p, r)
	if err != nil {
		return storewire.Object{}, err
	}
	return ToWire(stored), nil
}

func (a apiAdapter) StoreUpdate(p *sim.Proc, obj storewire.Object) (storewire.Object, error) {
	r, err := FromWire(obj)
	if err != nil {
		return storewire.Object{}, err
	}
	stored, err := a.s.Update(p, r)
	if err != nil {
		return storewire.Object{}, err
	}
	return ToWire(stored), nil
}

func (a apiAdapter) StoreUpdateStatus(p *sim.Proc, obj storewire.Object) (storewire.Object, error) {
	r, err := FromWire(obj)
	if err != nil {
		return storewire.Object{}, err
	}
	stored, err := a.s.UpdateStatus(p, r)
	if err != nil {
		return storewire.Object{}, err
	}
	return ToWire(stored), nil
}

func (a apiAdapter) StoreUpdateStatusAsync(p *sim.Proc, obj storewire.Object) error {
	r, err := FromWire(obj)
	if err != nil {
		return err
	}
	return a.s.UpdateStatusAsync(p, r)
}

func (a apiAdapter) StoreDelete(p *sim.Proc, kind, name string, rv uint64) error {
	return a.s.Delete(p, Kind(kind), name, rv)
}

func (a apiAdapter) StoreWatchPull(p *sim.Proc, kind string, fromRV uint64, max int, wait time.Duration) ([]storewire.Event, uint64, error) {
	evs, nextRV, err := a.s.PullEvents(p, Kind(kind), fromRV, max, wait)
	if err != nil {
		return nil, 0, err
	}
	out := make([]storewire.Event, 0, len(evs))
	for _, ev := range evs {
		wev := storewire.Event{Type: byte(ev.Type), RV: ev.RV}
		if ev.Object != nil { // a Gap marker carries none
			wev.Obj = ToWire(ev.Object)
		}
		out = append(out, wev)
	}
	return out, nextRV, nil
}

// Serve runs the store's request loop on listener l until the listener's
// inbox closes. CRUD executes inline, preserving FIFO order between a
// client's one-way status submissions and its later synchronous calls;
// long-poll watch pulls block, so each runs in its own short-lived process
// and cannot stall other clients. Run it as a daemon:
//
//	e.Run("store", func(p *sim.Proc) { store.Serve(p, s, l) })
func Serve(p *sim.Proc, s *Store, l *remoting.Listener) {
	api := apiAdapter{s: s}
	for {
		req, ok := l.Incoming.Recv(p)
		if !ok {
			return
		}
		if req.Ctrl != nil || len(req.Payload) < 2 {
			continue
		}
		switch binary.LittleEndian.Uint16(req.Payload) {
		case remoting.CallProtoHello:
			// Version negotiation. A malformed hello falls through to
			// Dispatch's unknown-call error, which the dialer reads as
			// "v1 server" — the same answer a pre-hello store gave.
			if reply, _, ok := remoting.HandleHello(req.Payload, remoting.MaxProtoVersion); ok {
				if req.ReplyTo != nil {
					req.ReplyTo.TrySend(remoting.Response{Payload: reply, Proto: remoting.ProtoV1})
				}
				continue
			}
		case storegen.CallStoreWatchPull:
			r := req
			p.Spawn("store-pull", func(p *sim.Proc) {
				resp := storegen.Dispatch(p, api, r.Payload)
				if r.ReplyTo != nil {
					r.ReplyTo.TrySend(remoting.Response{Payload: resp, Proto: r.Proto})
				}
			})
			continue
		}
		resp := storegen.Dispatch(p, api, req.Payload)
		if req.ReplyTo != nil {
			// The client may have died mid-call; drop the reply like a
			// network would.
			req.ReplyTo.TrySend(remoting.Response{Payload: resp, Proto: req.Proto})
		}
	}
}

// Remote watch-pump tuning.
const (
	remotePullMax   = 128
	remotePullWait  = 200 * time.Millisecond
	remoteRetryWait = 100 * time.Millisecond
)

// Remote implements Interface over a remoting transport, so reconcilers are
// indifferent to whether the store is in-process or behind the wire.
type Remote struct {
	e *sim.Engine
	c *storegen.Client
}

// NewRemote returns a store handle speaking the wire protocol over t.
func NewRemote(e *sim.Engine, t remoting.Caller) *Remote {
	return &Remote{e: e, c: &storegen.Client{T: t}}
}

// Get implements Interface.
func (r *Remote) Get(p *sim.Proc, kind Kind, name string) (Resource, error) {
	o, err := r.c.StoreGet(p, string(kind), name)
	if err != nil {
		return nil, err
	}
	return FromWire(o)
}

// List implements Interface.
func (r *Remote) List(p *sim.Proc, kind Kind) ([]Resource, uint64, error) {
	objs, rv, err := r.c.StoreList(p, string(kind))
	if err != nil {
		return nil, 0, err
	}
	out := make([]Resource, 0, len(objs))
	for _, o := range objs {
		res, err := FromWire(o)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, res)
	}
	return out, rv, nil
}

// Create implements Interface.
func (r *Remote) Create(p *sim.Proc, res Resource) (Resource, error) {
	o, err := r.c.StoreCreate(p, ToWire(res))
	if err != nil {
		return nil, err
	}
	return FromWire(o)
}

// Update implements Interface.
func (r *Remote) Update(p *sim.Proc, res Resource) (Resource, error) {
	o, err := r.c.StoreUpdate(p, ToWire(res))
	if err != nil {
		return nil, err
	}
	return FromWire(o)
}

// UpdateStatus implements Interface.
func (r *Remote) UpdateStatus(p *sim.Proc, res Resource) (Resource, error) {
	o, err := r.c.StoreUpdateStatus(p, ToWire(res))
	if err != nil {
		return nil, err
	}
	return FromWire(o)
}

// UpdateStatusAsync implements Interface: the write rides the one-way lane
// and any conflict is dropped server-side.
func (r *Remote) UpdateStatusAsync(p *sim.Proc, res Resource) error {
	return r.c.StoreUpdateStatusAsync(p, ToWire(res))
}

// Delete implements Interface.
func (r *Remote) Delete(p *sim.Proc, kind Kind, name string, rv uint64) error {
	return r.c.StoreDelete(p, string(kind), name, rv)
}

// Watch implements Interface by pumping long-poll pulls into a local event
// queue. Transient transport errors retry after a short pause; a connection
// fault closes the queue, which is how the consumer learns its stream died;
// Stop ends the pump.
func (r *Remote) Watch(p *sim.Proc, kind Kind, fromRV uint64) (*Watch, error) {
	w := &Watch{Events: sim.NewQueue[Event](r.e), kind: kind}
	w.stop = func() { w.Events.Close() }
	rv := fromRV
	p.SpawnDaemon("store-watch-pump", func(p *sim.Proc) {
		for !w.stopped {
			evs, nextRV, err := r.c.StoreWatchPull(p, string(kind), rv, remotePullMax, remotePullWait)
			if err != nil {
				if remoting.IsConnFault(err) {
					// The connection is gone for good (sim transports do
					// not reconnect); the consumer re-dials and re-watches.
					w.Events.Close()
					return
				}
				p.Sleep(remoteRetryWait)
				continue
			}
			for _, wev := range evs {
				ev := Event{Type: EventType(wev.Type), RV: wev.RV}
				if ev.Type != Gap {
					res, err := FromWire(wev.Obj)
					if err != nil {
						continue
					}
					ev.Object = res
				}
				if !w.Events.TrySend(ev) {
					return
				}
			}
			rv = nextRV
		}
	})
	return w, nil
}

var _ Interface = (*Store)(nil)
var _ Interface = (*Remote)(nil)
