package guest

import (
	"bytes"
	"testing"
	"time"

	"dgsf/internal/apiserver"
	"dgsf/internal/cuda"
	"dgsf/internal/gpu"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
)

// tappedServer is a real API server behind the simulated transport with a
// tap on its inbox: the tap counts how MemWrite requests arrive (vectored or
// inlined) and can swallow the next one, which is what a server that hangs
// inside a bulk call looks like from the guest.
type tappedServer struct {
	lst      *remoting.Listener
	vectored int // MemWrite requests that carried a bulk region
	inlined  int // MemWrite requests with the bytes inside the payload
	vecReads int // MemRead requests that asked for a vectored reply
	swallow  int // MemWrite requests still to drop without a reply
}

func newTappedServer(e *sim.Engine, p *sim.Proc) *tappedServer {
	cfg := gpu.V100Config(0)
	cfg.CopyLat, cfg.KernelLat = 0, 0
	rt := cuda.NewRuntime(e, []*gpu.Device{gpu.New(e, cfg)}, cuda.Costs{})
	srv := apiserver.NewServer(e, rt, apiserver.Config{PoolHandles: true})
	p.SpawnDaemon("apiserver", srv.Run)
	ts := &tappedServer{lst: remoting.NewListener(e)}
	p.SpawnDaemon("tap", func(p *sim.Proc) {
		for {
			req, ok := ts.lst.Incoming.Recv(p)
			if !ok {
				return
			}
			if len(req.Payload) >= 3 {
				switch uint16(req.Payload[0]) | uint16(req.Payload[1])<<8 {
				case gen.CallMemWrite:
					if req.Bulk != nil {
						ts.vectored++
					} else {
						ts.inlined++
					}
					if ts.swallow > 0 {
						ts.swallow--
						continue
					}
				case gen.CallMemRead:
					if req.Payload[2] != 0 {
						ts.vecReads++
					}
				}
			}
			srv.Inbox.Send(req)
		}
	})
	return ts
}

// TestRecoverableDeadlineKeepsBulkLane: a per-call deadline bounds the
// vectored lane, it does not replace it. A recoverable guest with CallDeadline
// set moves bulk bytes as the frame's bulk region (so transfers above the
// 1 MiB inline cap work), and a bulk call the server
// never answers times out and is recovered like any other.
func TestRecoverableDeadlineKeepsBulkLane(t *testing.T) {
	const deadline = 100 * time.Millisecond
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		var servers []*tappedServer
		dial := func(p *sim.Proc) (remoting.Caller, error) {
			ts := newTappedServer(e, p)
			servers = append(servers, ts)
			return remoting.Dial(e, ts.lst, remoting.NetProfile{RTT: 50 * time.Microsecond}), nil
		}
		conn, _ := dial(p)
		lib := NewRecoverable(conn, OptAll, RecoveryConfig{Redial: dial, CallDeadline: deadline})
		if err := lib.Hello(p, "fn", 1<<30); err != nil {
			t.Fatal(err)
		}
		ptr, err := lib.Malloc(p, 2<<20)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 2<<20)
		for i := range data {
			data[i] = byte(i * 7)
		}
		if err := lib.MemWrite(p, ptr, data); err != nil {
			t.Fatalf("2 MiB MemWrite under a call deadline = %v", err)
		}
		got, err := lib.MemRead(p, ptr, int64(len(data)))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("2 MiB MemRead under a call deadline: err %v, intact %v", err, bytes.Equal(got, data))
		}
		if ts := servers[0]; ts.vectored != 1 || ts.inlined != 0 || ts.vecReads != 1 {
			t.Fatalf("server saw %d vectored / %d inlined writes and %d vectored reads, want 1/0/1", ts.vectored, ts.inlined, ts.vecReads)
		}

		// The server goes silent inside the next bulk call. Without a deadline
		// on the vectored lane this would wait forever (the engine would
		// report a deadlock); with it the call times out at the deadline, the
		// session moves to a fresh server, the journaled first upload is
		// replayed over the bulk lane, and the interrupted call is retried.
		servers[0].swallow = 1
		start := p.Now()
		data[0]++
		if err := lib.MemWrite(p, ptr, data); err != nil {
			t.Fatalf("MemWrite across a silent server = %v, want recovery", err)
		}
		if waited := p.Now() - start; waited < deadline || waited > 2*deadline {
			t.Fatalf("silent bulk call took %v, want one %v deadline", waited, deadline)
		}
		if st := lib.Stats(); st.Recoveries != 1 || len(servers) != 2 {
			t.Fatalf("recoveries = %d over %d servers, want 1 over 2", st.Recoveries, len(servers))
		}
		if ts := servers[1]; ts.vectored != 2 || ts.inlined != 0 {
			t.Fatalf("recovered server saw %d vectored / %d inlined writes, want 2/0 (replay + retry)", ts.vectored, ts.inlined)
		}
		got, err = lib.MemRead(p, ptr, int64(len(data)))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("MemRead after recovery: err %v, intact %v", err, bytes.Equal(got, data))
		}
	})
}
