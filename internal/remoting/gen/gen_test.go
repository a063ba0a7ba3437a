package gen_test

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/gpu"
	"dgsf/internal/native"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

func TestCallTableComplete(t *testing.T) {
	seen := map[string]bool{}
	for id := uint16(1); id <= gen.NumCalls; id++ {
		name := gen.CallName(id)
		if name == "?" {
			t.Errorf("call %d has no name", id)
		}
		if seen[name] {
			t.Errorf("duplicate call name %q", name)
		}
		seen[name] = true
	}
	if gen.CallName(remoting.CallBatch) != "Batch" {
		t.Error("batch container not named")
	}
	if gen.CallName(9999) != "?" {
		t.Error("unknown id did not map to ?")
	}
	// IDs outside the tables — 0, the one past the last call, the reserved
	// envelope IDs — classify as nothing in particular.
	for _, id := range []uint16{0, gen.NumCalls + 1, gen.NumCalls + 2, remoting.CallFence, remoting.CallAsync, remoting.CallBatch} {
		if gen.CallClass(id) != gen.ClassRemote || gen.CallIsDeferrable(id) || gen.CallEstablishesState(id) {
			t.Errorf("unknown call %d: class %v deferrable %v establishes %v", id,
				gen.CallClass(id), gen.CallIsDeferrable(id), gen.CallEstablishesState(id))
		}
	}
	// Spot-check classes against the spec's intent.
	if gen.CallClass(gen.CallMalloc) != gen.ClassRemote {
		t.Error("Malloc must be remote")
	}
	if gen.CallClass(gen.CallLaunchKernel) != gen.ClassBatchable {
		t.Error("LaunchKernel must be batchable")
	}
	if gen.CallClass(gen.CallPushCallConfiguration) != gen.ClassLocal {
		t.Error("PushCallConfiguration must be local")
	}
	if gen.CallClass(gen.CallDnnCreateTensorDescriptor) != gen.ClassLocal {
		t.Error("descriptor creation must be local-class")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	// Representative request/response messages across all field kinds.
	lp := cuda.LaunchParams{Fn: 7, Grid: [3]int{1, 2, 3}, Block: [3]int{4, 5, 6}, Stream: 9, Duration: time.Millisecond, Mutates: []cuda.DevPtr{10, 11}}
	cases := []struct {
		enc func(*wire.Encoder)
		dec func(*wire.Decoder) bool
	}{
		{
			func(e *wire.Encoder) { (&gen.HelloReq{FnID: "fn", MemLimit: 42}).Encode(e) },
			func(d *wire.Decoder) bool {
				var m gen.HelloReq
				m.Decode(d)
				return m.FnID == "fn" && m.MemLimit == 42
			},
		},
		{
			func(e *wire.Encoder) { (&gen.RegisterKernelsResp{Ptrs: []cuda.FnPtr{1, 2, 3}}).Encode(e) },
			func(d *wire.Decoder) bool {
				var m gen.RegisterKernelsResp
				m.Decode(d)
				return len(m.Ptrs) == 3 && m.Ptrs[2] == 3
			},
		},
		{
			func(e *wire.Encoder) { (&gen.LaunchKernelReq{LP: lp}).Encode(e) },
			func(d *wire.Decoder) bool {
				var m gen.LaunchKernelReq
				m.Decode(d)
				return m.LP.Fn == 7 && m.LP.Grid == lp.Grid && len(m.LP.Mutates) == 2
			},
		},
		{
			func(e *wire.Encoder) {
				(&gen.MemcpyH2DReq{Dst: 5, Src: gpu.HostBuffer{FP: 8, Size: 9}, Size: 9}).Encode(e)
			},
			func(d *wire.Decoder) bool {
				var m gen.MemcpyH2DReq
				m.Decode(d)
				return m.Dst == 5 && m.Src.FP == 8 && m.Size == 9
			},
		},
		{
			func(e *wire.Encoder) {
				(&gen.GetDevicePropertiesResp{Prop: cuda.DeviceProp{Name: "V100", TotalMem: 16 << 30, SMs: 80}}).Encode(e)
			},
			func(d *wire.Decoder) bool {
				var m gen.GetDevicePropertiesResp
				m.Decode(d)
				return m.Prop.Name == "V100" && m.Prop.SMs == 80
			},
		},
		{
			func(e *wire.Encoder) {
				(&gen.DnnForwardReq{H: 3, Op: "conv", Dur: time.Second, Bufs: []cuda.DevPtr{1}, Descs: []uint64{2}}).Encode(e)
			},
			func(d *wire.Decoder) bool {
				var m gen.DnnForwardReq
				m.Decode(d)
				return m.H == 3 && m.Op == "conv" && m.Dur == time.Second && len(m.Bufs) == 1 && len(m.Descs) == 1
			},
		},
		{
			func(e *wire.Encoder) {
				(&gen.PointerGetAttributesResp{A: cuda.PtrAttributes{Device: 0, Size: 64, IsDevice: true}}).Encode(e)
			},
			func(d *wire.Decoder) bool {
				var m gen.PointerGetAttributesResp
				m.Decode(d)
				return m.A.IsDevice && m.A.Size == 64
			},
		},
	}
	for i, c := range cases {
		var e wire.Encoder
		c.enc(&e)
		d := wire.NewDecoder(e.Bytes())
		if !c.dec(d) {
			t.Errorf("case %d did not round-trip", i)
		}
		if d.Err() != nil || d.Remaining() != 0 {
			t.Errorf("case %d: err=%v remaining=%d", i, d.Err(), d.Remaining())
		}
	}
}

// loopback satisfies remoting.Caller by dispatching synchronously into a
// backend — the generated Client and gen.Dispatch exercising each other with no
// transport in between.
type loopback struct {
	b gen.API
	n int
}

func (l *loopback) Roundtrip(p *sim.Proc, req []byte, reqData int64) ([]byte, error) {
	l.n++
	resp, _ := gen.Dispatch(p, l.b, req)
	return resp, nil
}
func (l *loopback) Close() {}

// TestBulkCallNeedsTheBulkLane: bulk calls have one encoding, their bytes in
// the frame's bulk region, so over a transport without RoundtripVec they fail
// with remoting.ErrNoLane and send nothing.
func TestBulkCallNeedsTheBulkLane(t *testing.T) {
	l := &loopback{}
	c := &gen.Client{T: l}
	if err := c.MemWrite(nil, 0x10_0000, []byte{1, 2, 3}); !errors.Is(err, remoting.ErrNoLane) {
		t.Errorf("MemWrite = %v, want ErrNoLane", err)
	}
	if data, err := c.MemRead(nil, 0x10_0000, 3); data != nil || !errors.Is(err, remoting.ErrNoLane) {
		t.Errorf("MemRead = %v, %v; want nil, ErrNoLane", data, err)
	}
	if data, err := c.MemReadInto(nil, 0x10_0000, 3, make([]byte, 3)); data != nil || !errors.Is(err, remoting.ErrNoLane) {
		t.Errorf("MemReadInto = %v, %v; want nil, ErrNoLane", data, err)
	}
	if l.n != 0 {
		t.Errorf("the transport was asked for %d round trips, want 0", l.n)
	}
}

func TestClientDispatchLoopback(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		cfg := gpu.V100Config(0)
		cfg.CopyLat, cfg.KernelLat = 0, 0
		dev := gpu.New(e, cfg)
		rt := cuda.NewRuntime(e, []*gpu.Device{dev}, cuda.Costs{})
		lb := &loopback{b: native.New(rt, cudalibs.Costs{})}
		c := &gen.Client{T: lb}

		if err := c.Hello(p, "fn", 1<<30); err != nil {
			t.Fatal(err)
		}
		if n, err := c.GetDeviceCount(p); err != nil || n != 1 {
			t.Fatalf("GetDeviceCount = (%d, %v)", n, err)
		}
		ptr, err := c.Malloc(p, 1<<20)
		if err != nil || ptr == 0 {
			t.Fatalf("Malloc = (%v, %v)", ptr, err)
		}
		if err := c.Memset(p, ptr, 1, 1<<20); err != nil {
			t.Fatal(err)
		}
		fns, err := c.RegisterKernels(p, []string{"k"})
		if err != nil || len(fns) != 1 {
			t.Fatalf("RegisterKernels = (%v, %v)", fns, err)
		}
		if err := c.LaunchKernel(p, cuda.LaunchParams{Fn: fns[0], Duration: time.Millisecond, Mutates: []cuda.DevPtr{ptr}}); err != nil {
			t.Fatal(err)
		}
		if err := c.StreamSynchronize(p, 0); err != nil {
			t.Fatal(err)
		}
		buf, err := c.MemcpyD2H(p, ptr, 1<<20)
		if err != nil || buf.FP == 0 {
			t.Fatalf("MemcpyD2H = (%+v, %v)", buf, err)
		}
		d, err := c.DnnCreateTensorDescriptor(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.DnnSetTensorDescriptor(p, d); err != nil {
			t.Fatal(err)
		}
		if err := c.DnnDestroyTensorDescriptor(p, d); err != nil {
			t.Fatal(err)
		}
		// Errors propagate as typed codes across the encode/decode boundary.
		if err := c.Free(p, cuda.DevPtr(0xBAD)); !errors.Is(err, cuda.ErrInvalidValue) {
			t.Fatalf("Free(bad) = %v, want ErrInvalidValue", err)
		}
		if err := c.Free(p, ptr); err != nil {
			t.Fatal(err)
		}
		if lb.n == 0 {
			t.Fatal("loopback never called")
		}
	})
}

// Property: gen.Dispatch must never panic, whatever bytes arrive — corrupted or
// hostile payloads yield error responses.
func TestDispatchGarbageNeverPanics(t *testing.T) {
	f := func(payloads [][]byte) bool {
		e := sim.NewEngine(1)
		ok := true
		e.Run("root", func(p *sim.Proc) {
			cfg := gpu.V100Config(0)
			cfg.CopyLat, cfg.KernelLat = 0, 0
			dev := gpu.New(e, cfg)
			rt := cuda.NewRuntime(e, []*gpu.Device{dev}, cuda.Costs{})
			backend := native.New(rt, cudalibs.Costs{})
			for _, payload := range payloads {
				if len(payload) > 4096 {
					payload = payload[:4096]
				}
				// In a session, so garbage reaches the handlers.
				if !backend.Busy() && backend.Hello(p, "fn", 1<<30) != nil {
					ok = false
					return
				}
				resp, _ := gen.Dispatch(p, backend, payload)
				if len(resp) < 4 {
					ok = false // every response carries at least a status
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: for every call ID, dispatching an empty request body either
// succeeds or fails cleanly with a status code — never a panic or an
// oversized response.
func TestDispatchAllCallsEmptyBody(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		cfg := gpu.V100Config(0)
		cfg.CopyLat, cfg.KernelLat = 0, 0
		dev := gpu.New(e, cfg)
		rt := cuda.NewRuntime(e, []*gpu.Device{dev}, cuda.Costs{})
		backend := native.New(rt, cudalibs.Costs{})
		for id := uint16(1); id <= gen.NumCalls; id++ {
			// In a session, so every call reaches its handler.
			if !backend.Busy() {
				if err := backend.Hello(p, "fn", 1<<30); err != nil {
					t.Fatal(err)
				}
			}
			var enc wire.Encoder
			enc.U16(id)
			resp, _ := gen.Dispatch(p, backend, enc.Bytes())
			if len(resp) < 4 {
				t.Errorf("call %s: short response", gen.CallName(id))
			}
		}
	})
}
