package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

func wireFixtures() (*Session, *GPUServer) {
	s := &Session{
		ObjectMeta: ObjectMeta{Name: "detect-7", UID: 9, ResourceVersion: 41, Generation: 2, CreatedAt: 3 * time.Second},
		Spec:       SessionSpec{MemBytes: 1 << 30},
		Status:     SessionStatus{Phase: PhasePlaced, Server: "gpu-003", Attempts: 2},
	}
	g := &GPUServer{
		ObjectMeta: ObjectMeta{Name: "gpu-003", UID: 4, ResourceVersion: 40, Generation: 1},
		Spec:       GPUServerSpec{MemBytesPerGPU: 16 << 30},
		Status:     GPUServerStatus{Healthy: true, Capacity: 1},
	}
	return s, g
}

// TestStoreWireBytes pins the store protocol's bytes: all eight requests and
// the three responses that carry resources, hashed as one transcript. The
// constant was captured at aee1283 and re-captured once, when the Spec and
// Status sections lost every field nothing read. A moved hash means a call ID, a field order or the resource layout moved,
// which an old client or server would misread. Do not re-capture it to make
// a refactor pass.
func TestStoreWireBytes(t *testing.T) {
	s, g := wireFixtures()
	var e wire.Encoder
	AppendGetCall(&e, KindSession, "detect-7")
	AppendListCall(&e, KindGPUServer)
	AppendCreateCall(&e, s)
	AppendUpdateCall(&e, g)
	AppendUpdateStatusCall(&e, s)
	AppendUpdateStatusAsyncCall(&e, g)
	AppendDeleteCall(&e, KindSession, "detect-7", 41)
	AppendPullEventsCall(&e, KindSession, 17, 128, 200*time.Millisecond)
	(&GetResp{Obj: s}).Encode(&e)
	(&ListResp{Objs: []Resource{g, s}, RV: 41}).Encode(&e)
	(&PullEventsResp{Events: []Event{
		{Type: Gap, RV: 40},
		{Type: Added, RV: 40, Object: g},
		{Type: Modified, RV: 41, Object: s},
	}, NextRV: 41}).Encode(&e)

	const want = "f7339b10c0abaf17ba99b2ed724ae997e7845ef810a2afed89383cc320389f63"
	sum := sha256.Sum256(e.Bytes())
	if got := hex.EncodeToString(sum[:]); e.Len() != 1133 || got != want {
		t.Errorf("store wire transcript: %d bytes, sha256 %s; want 1133 bytes, %s", e.Len(), got, want)
	}
}

// TestResourceCodecRoundTrip: for every kind, decode(encode(r)) equals
// DeepCopy(r) — the codec loses nothing a copy keeps.
func TestResourceCodecRoundTrip(t *testing.T) {
	s, g := wireFixtures()
	s.Status.Reason = "server lost"
	s.Status.PlacedAt = 4 * time.Second
	g.Spec.StageBudget = 1 << 20
	meta := ObjectMeta{Name: "x/1", UID: 7, ResourceVersion: 8, Generation: 9, CreatedAt: time.Minute}
	all := []Resource{s, g,
		&StagedModel{ObjectMeta: meta, Spec: StagedModelSpec{Server: "gpu-003", Object: "detect/model", Bytes: 1 << 28}, Status: StagedModelStatus{Seq: 12}},
	}
	seen := map[Kind]bool{}
	for _, r := range all {
		seen[r.Kind()] = true
		var e wire.Encoder
		encodeResource(&e, r)
		d := wire.NewDecoder(e.Bytes())
		got := decodeResource(d)
		if d.Err() != nil || d.Remaining() != 0 {
			t.Fatalf("%s: decode err %v, %d bytes left", r.Kind(), d.Err(), d.Remaining())
		}
		if !reflect.DeepEqual(got, r.DeepCopy()) {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", r.Kind(), got, r)
		}
	}
	for _, k := range Kinds() {
		if !seen[k] {
			t.Errorf("kind %s has no round-trip case", k)
		}
	}
}

// rawRoundtrip sends a hand-built request to the served store, bounded by a
// deadline, and returns the status it is answered with.
func rawRoundtrip(t *testing.T, p *sim.Proc, conn remoting.Caller, payload []byte) int {
	t.Helper()
	resp, err := conn.(remoting.DeadlineCaller).RoundtripTimeout(p, payload, 0, time.Second)
	if err != nil {
		t.Fatalf("payload % x: %v", payload, err)
	}
	d := wire.NewDecoder(resp)
	code := int(d.I32())
	if d.Err() != nil {
		t.Fatalf("response too short for a status: % x", resp)
	}
	return code
}

// TestServeRejectsUndecodableResources: a Create whose resource names an
// unknown kind, or whose Spec section is cut short, is answered ErrBadRequest
// and never reaches the store.
func TestServeRejectsUndecodableResources(t *testing.T) {
	runRemote(t, 5, func(p *sim.Proc, r *Remote, conn remoting.AsyncCaller, s *Store) {
		sess, _ := wireFixtures()
		var good wire.Encoder
		AppendCreateCall(&good, sess)

		var unknown wire.Encoder
		unknown.U16(CallCreate)
		unknown.Str("Gadget")
		unknown.Raw(good.Bytes()[2+4+len(KindSession):])

		// Keep the Spec section's length prefix but only half its bytes, and
		// a Status section after it: the message is whole, the Spec is not.
		var cut wire.Encoder
		var spec wire.Encoder
		sess.EncodeSpec(&spec)
		cut.U16(CallCreate)
		cut.Str(string(KindSession))
		cut.Str(sess.Name)
		cut.U64(0)
		cut.U64(0)
		cut.U64(0)
		cut.Dur(0)
		cut.BytesField(spec.Bytes()[:spec.Len()/2])
		cut.BytesField(nil)

		for name, payload := range map[string][]byte{"unknown kind": unknown.Bytes(), "truncated spec": cut.Bytes()} {
			if code := rawRoundtrip(t, p, conn, payload); code != cuda.Code(ErrBadRequest) {
				t.Errorf("%s: status %d, want ErrBadRequest's %d", name, code, cuda.Code(ErrBadRequest))
			}
		}
		if s.RV() != 0 {
			t.Errorf("a rejected Create reached the store: rv %d", s.RV())
		}
		if code := rawRoundtrip(t, p, conn, good.Bytes()); code != 0 {
			t.Errorf("the well-formed Create: status %d", code)
		}
	})
}

// TestPullSkipsUndecodableEvent: a pull answered with three events whose
// middle one carries a kind this build does not know delivers the other two;
// a list entry of that kind fails the call instead.
func TestPullSkipsUndecodableEvent(t *testing.T) {
	s, g := wireFixtures()
	var gadget wire.Encoder // s's wire form under another kind
	encodeResource(&gadget, s)
	tail := append([]byte{}, gadget.Bytes()[4+len(KindSession):]...)
	gadget.Reset()
	gadget.Str("Gadget")
	gadget.Raw(tail)

	var pull, list wire.Encoder
	pull.I32(0)
	pull.U32(3)
	for i, obj := range [][]byte{nil, gadget.Bytes(), nil} {
		pull.U8(byte(Modified))
		pull.U64(uint64(40 + i))
		if obj == nil {
			encodeResource(&pull, g)
		} else {
			pull.Raw(obj)
		}
	}
	pull.U64(42)
	list.I32(0)
	list.U32(1)
	list.Raw(gadget.Bytes())
	list.U64(42)

	e := sim.NewEngine(8)
	l := remoting.NewListener(e)
	e.Run("test", func(p *sim.Proc) {
		p.SpawnDaemon("newer-store", func(p *sim.Proc) {
			for {
				req, ok := l.Incoming.Recv(p)
				if !ok {
					return
				}
				reply := list.Bytes()
				if wire.NewDecoder(req.Payload).U16() == CallPullEvents {
					reply = pull.Bytes()
				}
				req.ReplyTo.TrySend(remoting.Response{Payload: reply})
			}
		})
		r := NewRemote(e, remoting.Dial(e, l, remoting.NetProfile{}))
		evs, next, err := r.PullEvents(p, KindGPUServer, 0, 8, 0)
		if err != nil || next != 42 {
			t.Fatalf("PullEvents: next %d, err %v", next, err)
		}
		if len(evs) != 2 || evs[0].RV != 40 || evs[1].RV != 42 || !reflect.DeepEqual(evs[1].Object, Resource(g)) {
			t.Errorf("got events %+v, want the first and the third", evs)
		}
		if rs, _, err := r.List(p, KindGPUServer); !errors.Is(err, ErrBadRequest) || rs != nil {
			t.Errorf("list with an unknown kind: got %v, err %v; want ErrBadRequest", rs, err)
		}
	})
}

// TestSentinelsAcrossRemote: errors.Is holds on the far side of a Remote for
// every store sentinel, and an error with no sentinel still arrives as an
// error that is not a connection fault.
func TestSentinelsAcrossRemote(t *testing.T) {
	runRemote(t, 6, func(p *sim.Proc, r *Remote, conn remoting.AsyncCaller, s *Store) {
		sess, _ := wireFixtures()
		if _, err := r.Create(p, sess); err != nil {
			t.Fatal(err)
		}
		_, err := r.Create(p, sess)
		if !errors.Is(err, ErrExists) {
			t.Errorf("duplicate Create: %v", err)
		}
		if _, err = r.Get(p, KindSession, "nope"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get of a missing name: %v", err)
		}
		if _, err = r.Get(p, "Gadget", "x"); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Get of an unknown kind: %v", err)
		}
		if err = r.Delete(p, KindSession, sess.Name, 99); !errors.Is(err, ErrConflict) {
			t.Errorf("stale Delete: %v", err)
		}
		s.SetWriteFault(func(*sim.Proc) error { return ErrHalted })
		if err = r.Delete(p, KindSession, sess.Name, 0); !errors.Is(err, ErrHalted) {
			t.Errorf("halted write: %v", err)
		}
		s.SetWriteFault(func(*sim.Proc) error { return errors.New("disk on fire") })
		err = r.Delete(p, KindSession, sess.Name, 0)
		if err == nil || remoting.IsConnFault(err) || errors.Is(err, ErrHalted) {
			t.Errorf("a write fault with no sentinel arrived as %v", err)
		}
	})
}

// TestServeAnswersShortPayload: a payload too short to hold a call ID is
// answered ErrBadRequest like any other malformed request, instead of being
// dropped with the caller left waiting.
func TestServeAnswersShortPayload(t *testing.T) {
	runRemote(t, 7, func(p *sim.Proc, r *Remote, conn remoting.AsyncCaller, s *Store) {
		for _, payload := range [][]byte{{7}, {}} {
			if code := rawRoundtrip(t, p, conn, payload); code != cuda.Code(ErrBadRequest) {
				t.Errorf("payload % x: status %d, want ErrBadRequest's %d", payload, code, cuda.Code(ErrBadRequest))
			}
		}
	})
}
