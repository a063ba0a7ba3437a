package apiserver

import (
	"testing"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/guest"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// The per-call stack's allocation locks: in steady state a remoted call
// allocates nothing, on any lane. Each test drives the real layers — guest
// library, transport, request loop, generated dispatch, cuda model — warms
// every pool and queue once, and then counts. A count above zero names a
// layer that went back to allocating per call; run the test with
// -memprofilerate=1 -memprofile to see which.

func skipUnderRace(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("race detector drops sync.Pool items; alloc counts are meaningless")
	}
}

// allocRig is one opened session on a fast device behind the simulated
// transport, with a registered kernel and a buffer for it to write.
type allocRig struct {
	*rig
	lp cuda.LaunchParams
}

func newAllocRig(t *testing.T, e *sim.Engine, p *sim.Proc, opt guest.Opt) allocRig {
	r := newRig(e, p, 1, fastCfg(), opt)
	mustNil(t, r.lib.Hello(p, "fn", 64<<20))
	fns, err := r.lib.RegisterKernels(p, []string{"k"})
	mustNil(t, err)
	buf, err := r.lib.Malloc(p, 1<<20)
	mustNil(t, err)
	return allocRig{r, cuda.LaunchParams{
		Fn: fns[0], Grid: [3]int{256, 1, 1}, Block: [3]int{256, 1, 1},
		Duration: time.Microsecond, Mutates: []cuda.DevPtr{buf},
	}}
}

// TestAsyncLaunchAllocatesNothing: a kernel launch on the pipelined lane —
// guest op, pooled payload, simulated wire, request loop, shared decode,
// stream queue entry, kernel on the device — with a fence every 64.
func TestAsyncLaunchAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		r := newAllocRig(t, e, p, guest.OptAll|guest.OptAsync)
		burst := func() {
			for i := 0; i < 64; i++ {
				if err := r.lib.LaunchKernel(p, r.lp); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.lib.StreamSynchronize(p, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			burst()
		}
		if avg := testing.AllocsPerRun(50, burst); avg != 0 {
			t.Errorf("64 async launches and their fence allocate %.0f times, want 0", avg)
		}
		if st := r.lib.Stats(); st.Async < 64*50 || st.Fences < 50 {
			t.Errorf("stats %+v: the launches did not ride the pipelined lane", st)
		}
	})
}

// TestSyncCallAllocatesNothingSim: one result-bearing round trip over the
// simulated transport — pooled request encoder, request loop, dispatch into
// the server's scratch, pooled reply held by the connection until the next
// call.
func TestSyncCallAllocatesNothingSim(t *testing.T) {
	skipUnderRace(t)
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		r := newAllocRig(t, e, p, guest.OptNone)
		call := func() {
			if free, total, err := r.lib.MemGetInfo(p); err != nil || total != 64<<20 || free != 63<<20 {
				t.Fatalf("MemGetInfo = (%d, %d, %v)", free, total, err)
			}
		}
		for i := 0; i < 8; i++ {
			call()
		}
		if avg := testing.AllocsPerRun(500, call); avg != 0 {
			t.Errorf("a sync MemGetInfo over the simulated transport allocates %.0f times, want 0", avg)
		}
	})
}

// TestSyncCallAllocatesNothingTCP: the same round trip over a loopback socket
// through ServeConn — pooled frames both ways, request payload read into a
// pooled buffer the server returns, pooled reply returned by the bridge's
// writer. The buffers cross goroutines, so a pool miss now and then is
// possible; AllocsPerRun's average rounds it away, a per-call allocation
// would not be.
func TestSyncCallAllocatesNothingTCP(t *testing.T) {
	skipUnderRace(t)
	ts := newTCPServer(t)
	cl, c, _ := ts.dial()
	defer c.Close()
	mustNil(t, cl.Hello(nil, "fn", 64<<20))
	call := func() {
		if _, total, err := cl.MemGetInfo(nil); err != nil || total != 64<<20 {
			t.Fatalf("MemGetInfo = (%d, %v)", total, err)
		}
	}
	for i := 0; i < 64; i++ {
		call()
	}
	if avg := testing.AllocsPerRun(2000, call); avg != 0 {
		t.Errorf("a sync MemGetInfo over loopback TCP allocates %.0f times, want 0", avg)
	}
}

// TestDnnForwardAllocatesNothing: a cuDNN primitive through the request
// loop — its name and buffers decoded shared, the kernel name looked up, its
// status written to the server's scratch. A batch may not carry it (it is
// not batchable), so it travels as a call of its own.
func TestDnnForwardAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		r := newAllocRig(t, e, p, guest.OptNone)
		h, err := r.srv.DnnCreate(p)
		mustNil(t, err)
		var msg wire.Encoder
		gen.AppendDnnForwardCall(&msg, h, "conv", time.Microsecond, r.lp.Mutates, nil)
		call := serverCall(t, e, p, r.srv, msg.Bytes())
		for i := 0; i < 8; i++ {
			call()
		}
		if avg := testing.AllocsPerRun(200, call); avg != 0 {
			t.Errorf("a DnnForward allocates %.0f times, want 0", avg)
		}
	})
}

// TestBatchedLaunchAllocatesNothing: kernel launches as the entries of a
// CallBatch — each entry a view of the batch, its buffers decoded shared,
// its status read from the server's scratch.
func TestBatchedLaunchAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		r := newAllocRig(t, e, p, guest.OptNone)
		var entry, batch wire.Encoder
		gen.AppendLaunchKernelCall(&entry, r.lp)
		batch.U16(remoting.CallBatch)
		batch.U32(2)
		batch.BytesField(entry.Bytes())
		batch.BytesField(entry.Bytes())
		call := serverCall(t, e, p, r.srv, batch.Bytes())
		for i := 0; i < 8; i++ {
			call()
		}
		if avg := testing.AllocsPerRun(200, call); avg != 0 {
			t.Errorf("a batch of two launches allocates %.0f times, want 0", avg)
		}
	})
}

// serverCall returns a function that sends msg through srv's request loop,
// fails the test unless the reply is a bare zero status, and lets the
// call's kernels run: kernels that piled up on the stream would grow its op
// ring, a few allocations that testing.AllocsPerRun's per-run average
// rounds down to zero.
func serverCall(t *testing.T, e *sim.Engine, p *sim.Proc, srv *Server, msg []byte) func() {
	replies := sim.NewQueue[remoting.Response](e)
	req := remoting.Request{Payload: msg, ReplyTo: replies}
	return func() {
		srv.Inbox.Send(req)
		resp, _ := replies.Recv(p)
		if len(resp.Payload) != 4 || resp.Payload[0]|resp.Payload[1]|resp.Payload[2]|resp.Payload[3] != 0 {
			t.Fatalf("status %v", resp.Payload)
		}
		resp.Release()
		p.Sleep(10 * time.Microsecond)
	}
}
