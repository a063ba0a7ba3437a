package apiserver

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// simRig starts a fast server as a daemon of p's engine and connects the
// generated client to it over the simulated transport.
func simRig(e *sim.Engine, p *sim.Proc) (*Server, *gen.Client) {
	srv := newFastServer(e, Config{}, func(name string, fn func(*sim.Proc)) { p.SpawnDaemon(name, fn) })
	return srv, &gen.Client{T: remoting.Dial(e, &remoting.Listener{Incoming: srv.Inbox}, remoting.NetProfile{})}
}

// pattern fills n bytes that differ between seeds at every offset.
func pattern(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*131 + i*7 + i>>8)
	}
	return b
}

// memCall is one MemWrite or MemRead as a guest would put it on the wire,
// built by hand so the table below can carry sizes no well-behaved client
// sends.
type memCall struct {
	write bool
	ptr   cuda.DevPtr
	n     int64 // bytes to write, or the size to read
}

// viaClient sends the call through the generated client over the simulated
// transport: the bulk region is the guest's own slice, borrowed.
func (c memCall) viaClient(p *sim.Proc, cl *gen.Client, _ *Server) ([]byte, error) {
	if c.write {
		return nil, cl.MemWrite(p, c.ptr, pattern(int(c.n), int(c.n)))
	}
	return cl.MemRead(p, c.ptr, c.n)
}

// viaDispatch hands the server a hand-built payload the way its request loop
// does, vectored both ways, and decodes the status.
func (c memCall) viaDispatch(p *sim.Proc, _ *gen.Client, srv *Server) ([]byte, error) {
	var e wire.Encoder
	var bulk []byte
	if c.write {
		e.U16(gen.CallMemWrite)
		e.U64(uint64(c.ptr))
		bulk = pattern(int(c.n), int(c.n))
	} else {
		e.U16(gen.CallMemRead)
		e.Bool(true)
		e.U64(uint64(c.ptr))
		e.I64(c.n)
	}
	resp, _, respBulk := gen.DispatchBulk(p, srv, e.Bytes(), bulk)
	d := wire.NewDecoder(resp)
	if code := int(d.I32()); code != 0 {
		return nil, cuda.FromCode(code)
	}
	return respBulk, d.Err()
}

// TestBulkBoundsAreEnforced: a guest chooses the pointer and the size of
// every MemWrite and MemRead. Whatever it chooses, the server answers with an
// error or with bytes from inside one of the session's allocations, holds no
// byte outside them, and keeps serving.
func TestBulkBoundsAreEnforced(t *testing.T) {
	const alloc, limit = 4 << 10, 1 << 20
	paths := []struct {
		name string
		call func(memCall, *sim.Proc, *gen.Client, *Server) ([]byte, error)
	}{
		{"sim_transport", memCall.viaClient},
		{"dispatch_bulk", memCall.viaDispatch},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			e.Run("root", func(p *sim.Proc) {
				srv, cl := simRig(e, p)
				do := func(c memCall) ([]byte, error) { return path.call(c, p, cl, srv) }

				if _, err := do(memCall{ptr: 0x7f00_0000_0000, n: 16}); !errors.Is(err, cuda.ErrNotInitialized) {
					t.Fatalf("MemRead without a session = %v, want ErrNotInitialized", err)
				}
				if _, err := do(memCall{write: true, ptr: 0x7f00_0000_0000, n: 16}); !errors.Is(err, cuda.ErrNotInitialized) {
					t.Fatalf("MemWrite without a session = %v, want ErrNotInitialized", err)
				}
				if err := cl.Hello(p, "fn", limit); err != nil {
					t.Fatal(err)
				}
				ptr, err := cl.Malloc(p, alloc)
				if err != nil {
					t.Fatal(err)
				}
				gone, err := cl.Malloc(p, alloc)
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.Free(p, gone); err != nil {
					t.Fatal(err)
				}

				rows := []struct {
					name string
					call memCall
					want error
				}{
					{"read size -1", memCall{ptr: ptr, n: -1}, cuda.ErrInvalidValue},
					{"read size 1<<40", memCall{ptr: ptr, n: 1 << 40}, cuda.ErrInvalidValue},
					{"read extent+1", memCall{ptr: ptr, n: alloc + 1}, cuda.ErrInvalidValue},
					{"read interior past the end", memCall{ptr: ptr + 4000, n: 97}, cuda.ErrInvalidValue},
					{"write larger than the allocation", memCall{write: true, ptr: ptr, n: 2 * alloc}, cuda.ErrInvalidValue},
					{"write interior past the end", memCall{write: true, ptr: ptr + 4000, n: 97}, cuda.ErrInvalidValue},
					{"write larger than the Hello limit", memCall{write: true, ptr: ptr, n: 2 * limit}, cuda.ErrInvalidValue},
					{"read freed pointer", memCall{ptr: gone, n: 16}, cuda.ErrInvalidAddressSpace},
					{"write freed pointer", memCall{write: true, ptr: gone, n: 16}, cuda.ErrInvalidAddressSpace},
					{"read stray pointer", memCall{ptr: 0x1234, n: 16}, cuda.ErrInvalidAddressSpace},
					{"write stray pointer", memCall{write: true, ptr: 0x1234, n: 96}, cuda.ErrInvalidAddressSpace},
					{"write whole allocation", memCall{write: true, ptr: ptr, n: alloc}, nil},
					{"write interior to the end", memCall{write: true, ptr: ptr + 4000, n: 96}, nil},
				}
				for _, row := range rows {
					if _, err := do(row.call); !errors.Is(err, row.want) {
						t.Errorf("%s = %v, want %v", row.name, err, row.want)
					}
					if n, _, held := srv.sess.mem.Held(); n > 1 || held > alloc {
						t.Fatalf("after %s the store holds %d bytes of host memory for %d allocations, the session allocated %d in one", row.name, held, n, alloc)
					}
				}

				// Write-then-read round-trips at the same (ptr, n), base and
				// interior; what was never uploaded reads as zeros.
				want := pattern(alloc, alloc)
				copy(want[4000:], pattern(96, 96))
				for _, r := range []struct{ off, n int64 }{{0, alloc}, {4000, 96}, {3990, 106}, {100, 1000}, {alloc - 1, 1}, {8, 0}} {
					got, err := do(memCall{ptr: ptr + cuda.DevPtr(r.off), n: r.n})
					if err != nil || !bytes.Equal(got, want[r.off:r.off+r.n]) {
						t.Errorf("MemRead(base+%d, %d): err %v, intact %v", r.off, r.n, err, bytes.Equal(got, want[r.off:r.off+r.n]))
					}
				}
				fresh, err := cl.Malloc(p, alloc)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := do(memCall{write: true, ptr: fresh + 10, n: 5}); err != nil {
					t.Fatal(err)
				}
				got, err := do(memCall{ptr: fresh, n: 64})
				sparse := make([]byte, 64)
				copy(sparse[10:], pattern(5, 5))
				if err != nil || !bytes.Equal(got, sparse) {
					t.Errorf("read around a 5-byte interior write = %v, %v; want zeros around it", got, err)
				}

				// The server kept serving through every rejection.
				if free, total, err := cl.MemGetInfo(p); err != nil || total != limit || free != limit-2*alloc {
					t.Fatalf("MemGetInfo after the table = %d/%d, %v", free, total, err)
				}
				if err := cl.Bye(p); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestFreeDropsStoredBytes: a function that loops Malloc/MemWrite/Free must
// not grow the server's heap behind a SessionMem of 0.
func TestFreeDropsStoredBytes(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		srv, cl := simRig(e, p)
		if err := cl.Hello(p, "fn", 8<<20); err != nil {
			t.Fatal(err)
		}
		data := pattern(1, 1<<20)
		for i := 0; i < 64; i++ {
			ptr, err := cl.Malloc(p, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.MemWrite(p, ptr, data); err != nil {
				t.Fatal(err)
			}
			if n, held, capacity := srv.sess.mem.Held(); n != 1 || held != 1<<20 || capacity != 1<<20 {
				t.Fatalf("round %d: store holds %d bytes (%d of memory) in %d allocations after MemWrite", i, held, capacity, n)
			}
			if err := cl.Free(p, ptr); err != nil {
				t.Fatal(err)
			}
			if n, _, held := srv.sess.mem.Held(); n != 0 || held != 0 {
				t.Fatalf("round %d: store still holds %d bytes in %d allocations after Free", i, held, n)
			}
		}
		if st := srv.Stats(); st.SessionMem != 0 {
			t.Fatalf("SessionMem = %d after the last Free", st.SessionMem)
		}
	})
}

// TestBytesSurviveMigration: migration preserves the virtual address space,
// and the uploaded bytes with it.
func TestBytesSurviveMigration(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		r := newRig(e, p, 2, fastCfg(), 0)
		lib := r.lib
		if err := lib.Hello(p, "fn", 1<<30); err != nil {
			t.Fatal(err)
		}
		ptr, err := lib.Malloc(p, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		data := pattern(3, 300<<10)
		if err := lib.MemWrite(p, ptr+4096, data); err != nil {
			t.Fatal(err)
		}
		done := sim.NewQueue[time.Duration](e)
		r.srv.Inbox.Send(remoting.Request{Ctrl: MigrateRequest{TargetDev: 1, Done: done}})
		if d, _ := done.Recv(p); d <= 0 || r.srv.CurrentDev() != 1 {
			t.Fatalf("migration: duration %v, now on device %d", d, r.srv.CurrentDev())
		}
		got, err := lib.MemRead(p, ptr+4096, int64(len(data)))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("MemRead at the preserved address after migration: err %v, intact %v", err, bytes.Equal(got, data))
		}
		if err := lib.Bye(p); err != nil {
			t.Fatal(err)
		}
	})
}

// --- lend and adopt, over the real transport ---

// tcpServer is an API server on an open engine behind a loopback listener:
// every accepted connection is bridged into its inbox, one at a time, the way
// cmd/gpuserver leases a server to a connection.
type tcpServer struct {
	t    *testing.T
	e    *sim.Engine
	srv  *Server
	ln   net.Listener
	done chan (<-chan struct{}) // the bridge of each accepted connection
}

func newTCPServer(t *testing.T) *tcpServer {
	t.Helper()
	e := sim.NewOpenEngine(1)
	ts := &tcpServer{t: t, e: e, done: make(chan (<-chan struct{}), 4)}
	ts.srv = newFastServer(e, Config{}, e.InjectDaemon)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts.ln = ln
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			ts.done <- remoting.ServeConn(e, c, ts.srv.Inbox)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		e.Stop()
	})
	return ts
}

// dial opens a guest connection and returns the generated client on it with
// the channel that closes when the server's bridge for it is gone.
func (ts *tcpServer) dial() (*gen.Client, remoting.AsyncCaller, <-chan struct{}) {
	ts.t.Helper()
	c, err := remoting.DialTCP(ts.ln.Addr().String())
	if err != nil {
		ts.t.Fatal(err)
	}
	return &gen.Client{T: c}, c, <-ts.done
}

// onServer runs fn as a process of the server's engine, which orders it
// against the request loop.
func (ts *tcpServer) onServer(fn func(p *sim.Proc)) { <-ts.e.Inject("test", fn) }

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestBulkLendAndAdoptOverTCP drives the ownership hop in both directions
// over a loopback DialTCP <-> ServeConn <-> Server pair. Run it under -race:
// a buffer recycled while lent, or adopted while the reader still fills it,
// is a data race between the bridge's goroutines and the engine.
func TestBulkLendAndAdoptOverTCP(t *testing.T) {
	t.Run("byte_exact", func(t *testing.T) {
		ts := newTCPServer(t)
		cl, c, _ := ts.dial()
		defer c.Close()
		mustNil(t, cl.Hello(nil, "fn", 64<<20))
		const n = 1 << 20
		var ptrs [3]cuda.DevPtr
		for i := range ptrs {
			var err error
			ptrs[i], err = cl.Malloc(nil, n)
			mustNil(t, err)
		}
		dst := make([]byte, n)
		for i := 0; i < 200; i++ {
			want := pattern(i, n)
			mustNil(t, cl.MemWrite(nil, ptrs[0], want))
			got, err := cl.MemReadInto(nil, ptrs[0], n, dst)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("round %d on one pointer: err %v, intact %v", i, err, bytes.Equal(got, want))
			}
		}
		// Interleaved on three: every pointer's bytes are read back after
		// writes to the other two.
		var stored [3][]byte
		for i := 0; i < 200; i++ {
			stored[i%3] = pattern(1000+i, n)
			mustNil(t, cl.MemWrite(nil, ptrs[i%3], stored[i%3]))
			for j, want := range stored {
				if want == nil {
					continue
				}
				got, err := cl.MemReadInto(nil, ptrs[j], n, dst)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("round %d, pointer %d: err %v, intact %v", i, j, err, bytes.Equal(got, want))
				}
			}
		}
		mustNil(t, cl.Bye(nil))
	})

	// A guest that does not wait: the MemRead request goes out one-way, the
	// MemWrite of different bytes to the same pointer right behind it, so the
	// server may run the write while the read's reply still waits for the
	// writer process. The first reply read is the MemRead's.
	t.Run("read_then_write_pipelined", func(t *testing.T) {
		ts := newTCPServer(t)
		cl, c, _ := ts.dial()
		defer c.Close()
		mustNil(t, cl.Hello(nil, "fn", 64<<20))
		const n = 2 << 20
		ptr, err := cl.Malloc(nil, n)
		mustNil(t, err)
		old, fresh := pattern(1, n), pattern(2, n)
		mustNil(t, cl.MemWrite(nil, ptr, old))

		var rd, wr wire.Encoder
		rd.U16(gen.CallMemRead)
		rd.Bool(true)
		(&gen.MemReadReq{Src: ptr, Size: n}).Encode(&rd)
		wr.U16(gen.CallMemWrite)
		(&gen.MemWriteReq{Dst: ptr}).EncodeMeta(&wr)
		mustNil(t, c.Submit(nil, rd.Bytes(), 0))
		_, first, err := c.(remoting.VecCaller).RoundtripVec(nil, wr.Bytes(), fresh, make([]byte, n))
		mustNil(t, err)
		if !bytes.Equal(first, old) {
			t.Fatal("the MemRead reply does not carry the bytes stored when it ran: the write behind it got into the lent view")
		}
		// One reply behind from here on: this round trip collects the
		// MemWrite's status, its own small reply stays unread.
		var info wire.Encoder
		info.U16(gen.CallMemGetInfo)
		status, err := c.Roundtrip(nil, info.Bytes(), 0)
		if err != nil || len(status) != 4 || !bytes.Equal(status, make([]byte, 4)) {
			t.Fatalf("MemWrite status = %v, %v", status, err)
		}
		ts.onServer(func(p *sim.Proc) {
			got, err := ts.srv.MemRead(p, ptr, n)
			if err != nil || !bytes.Equal(got, fresh) {
				t.Errorf("the store after the pipelined write: err %v, holds the new bytes %v", err, bytes.Equal(got, fresh))
			}
		})
	})

	// The guest asks for 4 MiB and vanishes without reading the reply. The
	// gpuserver front end then resets the session, and the next connection
	// on the same server must see only its own bytes.
	t.Run("guest_vanishes_mid_reply", func(t *testing.T) {
		ts := newTCPServer(t)
		cl, c, bridge := ts.dial()
		mustNil(t, cl.Hello(nil, "fn-1", 64<<20))
		const n = 4 << 20
		ptr, err := cl.Malloc(nil, n)
		mustNil(t, err)
		mustNil(t, cl.MemWrite(nil, ptr, pattern(7, n)))
		var rd wire.Encoder
		rd.U16(gen.CallMemRead)
		rd.Bool(true)
		(&gen.MemReadReq{Src: ptr, Size: n}).Encode(&rd)
		mustNil(t, c.Submit(nil, rd.Bytes(), 0))
		c.Close()
		<-bridge

		reset := sim.NewQueue[struct{}](ts.e)
		ts.srv.Inbox.Send(remoting.Request{Ctrl: ResetRequest{Done: reset}})
		ts.onServer(func(p *sim.Proc) { reset.Recv(p) })
		ts.onServer(func(p *sim.Proc) {
			if ts.srv.Busy() {
				t.Error("session survived the reset")
			}
		})

		cl2, c2, _ := ts.dial()
		defer c2.Close()
		mustNil(t, cl2.Hello(nil, "fn-2", 64<<20))
		ptr2, err := cl2.Malloc(nil, n)
		mustNil(t, err)
		zeros, err := cl2.MemRead(nil, ptr2, n)
		if err != nil || !bytes.Equal(zeros, make([]byte, n)) {
			t.Fatalf("a fresh allocation of the next session: err %v, reads as zeros %v", err, bytes.Equal(zeros, make([]byte, n)))
		}
		want := pattern(8, n)
		mustNil(t, cl2.MemWrite(nil, ptr2, want))
		got, err := cl2.MemRead(nil, ptr2, n)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("second connection: err %v, intact %v", err, bytes.Equal(got, want))
		}
		ts.onServer(func(p *sim.Proc) {
			if allocs, held, _ := ts.srv.sess.mem.Held(); allocs != 1 || held != n {
				t.Errorf("the second session's store holds %d bytes in %d allocations, want its own %d", held, allocs, n)
			}
		})
		mustNil(t, cl2.Bye(nil))
	})
}

// TestSmallBulkOverTCP: bulk regions below the transport's pooled classes. A
// session of tiny allocations keeps exactly their bytes of host memory alive,
// whatever other traffic left in the pools; the buffers it frees stay out of
// the framing code's small pool, where a 4-byte one drawn as a header buffer
// would take the server process down; and a region just inside the pooled
// classes is held in under 4x its length.
func TestSmallBulkOverTCP(t *testing.T) {
	ts := newTCPServer(t)
	cl, c, _ := ts.dial()
	defer c.Close()
	mustNil(t, cl.Hello(nil, "fn", 1<<20))

	// Leave large buffers where a careless reader would find them.
	for _, n := range []int{64 << 10, 256 << 10} {
		ptr, err := cl.Malloc(nil, int64(n))
		mustNil(t, err)
		mustNil(t, cl.MemWrite(nil, ptr, pattern(n, n)))
		mustNil(t, cl.Free(nil, ptr))
	}

	var ptrs []cuda.DevPtr
	var total int64
	for i := 0; i < 64; i++ {
		size := 1 + i%16
		ptr, err := cl.Malloc(nil, int64(size))
		mustNil(t, err)
		if i%2 == 0 { // the odd ones are materialised by the read alone
			mustNil(t, cl.MemWrite(nil, ptr, pattern(i, size)))
		}
		got, err := cl.MemRead(nil, ptr, int64(size))
		if want := pattern(i, size); err != nil || i%2 == 0 && !bytes.Equal(got, want) {
			t.Fatalf("allocation %d of %d bytes: read %v, %v; want %v", i, size, got, err, want)
		}
		ptrs = append(ptrs, ptr)
		total += int64(size)
	}
	ts.onServer(func(*sim.Proc) {
		if allocs, held, capacity := ts.srv.sess.mem.Held(); allocs != len(ptrs) || held != total || capacity != total {
			t.Errorf("%d allocations of %d bytes in all: the store holds %d bytes in %d of host memory for %d", len(ptrs), total, held, capacity, allocs)
		}
	})

	const n = 64<<10 + 1
	big, err := cl.Malloc(nil, n)
	mustNil(t, err)
	mustNil(t, cl.MemWrite(nil, big, pattern(n, n)))
	ts.onServer(func(*sim.Proc) {
		if _, _, capacity := ts.srv.sess.mem.Held(); capacity-total < n || capacity-total > 4*n+128 {
			t.Errorf("a %d-byte upload is held in %d bytes of host memory", n, capacity-total)
		}
	})

	for _, ptr := range append(ptrs, big) {
		mustNil(t, cl.Free(nil, ptr))
	}
	for i := 0; i < 256; i++ {
		if _, _, err := cl.MemGetInfo(nil); err != nil {
			t.Fatalf("small call %d after the frees: %v", i, err)
		}
	}
	mustNil(t, cl.Bye(nil))
}

// TestOwnedBulkIsAdoptedBorrowedIsCopied is the white box on the inbound
// hop: a bulk region the transport gave away becomes the allocation's backing
// as it is — the server moves no byte of it — and the backing it displaces
// goes back to the transport; a borrowed one is copied exactly once.
func TestOwnedBulkIsAdoptedBorrowedIsCopied(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		srv, cl := simRig(e, p)
		mustNil(t, cl.Hello(p, "fn", 64<<20))
		const n = 1 << 20
		ptr, err := cl.Malloc(p, n)
		mustNil(t, err)

		replies := sim.NewQueue[remoting.Response](e)
		write := func(bulk []byte, owned bool) {
			var enc wire.Encoder
			enc.U16(gen.CallMemWrite)
			(&gen.MemWriteReq{Dst: ptr}).EncodeMeta(&enc)
			srv.Inbox.Send(remoting.Request{Payload: enc.Bytes(), Bulk: bulk, BulkOwned: owned, ReplyTo: replies})
			r, _ := replies.Recv(p)
			if code := wire.NewDecoder(r.Payload).I32(); code != 0 {
				t.Fatalf("MemWrite status %d", code)
			}
		}
		backing := func() []byte { return srv.sess.mem.View(ptr, 0, n) }

		for i, owned := range []bool{true, true, false, true} {
			bulk := pattern(i, n)
			before := srv.sess.mem.Copied()
			write(bulk, owned)
			moved := srv.sess.mem.Copied() - before
			switch same := &backing()[0] == &bulk[0]; {
			case owned && (!same || moved != 0):
				t.Fatalf("write %d, owned: backing is the reader's buffer %v, server copied %d bytes; want true and 0", i, same, moved)
			case !owned && (same || moved != n):
				t.Fatalf("write %d, borrowed: backing is the sender's buffer %v, server copied %d bytes; want false and %d", i, same, moved, n)
			}
			if !bytes.Equal(backing(), pattern(i, n)) {
				t.Fatalf("write %d: stored bytes differ", i)
			}
		}

		// An owned region that cannot replace the backing whole — an interior
		// write — is copied in like a borrowed one.
		bulk := pattern(9, 4096)
		before := srv.sess.mem.Copied()
		var enc wire.Encoder
		enc.U16(gen.CallMemWrite)
		(&gen.MemWriteReq{Dst: ptr + 8192}).EncodeMeta(&enc)
		srv.Inbox.Send(remoting.Request{Payload: enc.Bytes(), Bulk: bulk, BulkOwned: true, ReplyTo: replies})
		replies.Recv(p)
		if moved := srv.sess.mem.Copied() - before; moved != 4096 || !bytes.Equal(backing()[8192:8192+4096], pattern(9, 4096)) {
			t.Fatalf("interior owned write: copied %d bytes, want 4096 and the bytes in place", moved)
		}
	})
}

// TestLentViewSurvivesTheNextWrite is the deterministic form of the
// pipelined case: both requests are in the inbox before the server runs, so
// the write always executes while the read's reply is still queued.
func TestLentViewSurvivesTheNextWrite(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		srv, cl := simRig(e, p)
		mustNil(t, cl.Hello(p, "fn", 64<<20))
		const n = 256 << 10
		ptr, err := cl.Malloc(p, n)
		mustNil(t, err)
		old, fresh := pattern(1, n), pattern(2, n)
		mustNil(t, cl.MemWrite(p, ptr, old))

		replies := sim.NewQueue[remoting.Response](e)
		var rd, wr wire.Encoder
		rd.U16(gen.CallMemRead)
		rd.Bool(true)
		(&gen.MemReadReq{Src: ptr, Size: n}).Encode(&rd)
		wr.U16(gen.CallMemWrite)
		(&gen.MemWriteReq{Dst: ptr}).EncodeMeta(&wr)
		for _, owned := range []bool{true, false} {
			bulk := append([]byte(nil), fresh...)
			srv.Inbox.Send(remoting.Request{Payload: rd.Bytes(), ReplyTo: replies})
			srv.Inbox.Send(remoting.Request{Payload: wr.Bytes(), Bulk: bulk, BulkOwned: owned, ReplyTo: replies})
			read, _ := replies.Recv(p)
			replies.Recv(p)
			if read.Lend == nil {
				t.Fatal("a vectored MemRead reply carries no lend")
			}
			if !bytes.Equal(read.Bulk, old) {
				t.Fatalf("owned=%v: the write that ran behind the read changed the lent view", owned)
			}
			read.Release()
			got, err := srv.MemRead(p, ptr, n)
			if err != nil || !bytes.Equal(got, fresh) {
				t.Fatalf("owned=%v: the store after the write: err %v, new bytes %v", owned, err, bytes.Equal(got, fresh))
			}
			mustNil(t, cl.MemWrite(p, ptr, old))
		}

		// A reply nobody can take is dropped by the server itself, which
		// ends the lend on the spot: the next write lands in place.
		dead := sim.NewQueue[remoting.Response](e)
		dead.Close()
		srv.Inbox.Send(remoting.Request{Payload: rd.Bytes(), ReplyTo: dead})
		before := &srv.sess.mem.View(ptr, 0, n)[0]
		mustNil(t, cl.MemWrite(p, ptr, fresh))
		if after := &srv.sess.mem.View(ptr, 0, n)[0]; after != before {
			t.Fatal("a dropped reply left its lend outstanding: the next write was copied aside")
		}
	})
}

// TestTimedOutMemReadEndsItsLend: the guest gives up on a MemRead before the
// reply exists. Its connection is broken, so the reply finds the reply queue
// closed and the server ends the lend itself: the session's next write lands
// in place instead of copying the whole backing aside.
func TestTimedOutMemReadEndsItsLend(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		srv, cl := simRig(e, p)
		mustNil(t, cl.Hello(p, "fn", 64<<20))
		const n = 1 << 20
		ptr, err := cl.Malloc(p, n)
		mustNil(t, err)
		mustNil(t, cl.MemWrite(p, ptr, pattern(1, n)))

		cl.T.(remoting.DeadlineCaller).SetCallDeadline(time.Microsecond) // the PCIe download alone takes longer
		if _, err := cl.MemRead(p, ptr, n); !errors.Is(err, remoting.ErrCallTimeout) {
			t.Fatalf("MemRead under a 1 us deadline = %v, want ErrCallTimeout", err)
		}
		p.Sleep(time.Second) // the server finishes the call and finds nobody to reply to

		before := srv.sess.mem.Copied()
		mustNil(t, srv.MemWrite(p, ptr, pattern(2, 4096)))
		if moved := srv.sess.mem.Copied() - before; moved != 4096 {
			t.Fatalf("a 4096-byte write after the abandoned read moved %d bytes: the lend is still out", moved)
		}
	})
}

// bulkScript is a 40-call bulk session: writes and reads at base and interior
// pointers of three allocations, rejected ranges among them, a free in the
// middle. It returns what every call returned.
func bulkScript(p *sim.Proc, cl *gen.Client) []string {
	var out []string
	rec := func(what string, v ...any) { out = append(out, what+": "+fmt.Sprint(v...)) }
	sum := func(b []byte) string {
		var h uint32 = 2166136261
		for _, c := range b {
			h = (h ^ uint32(c)) * 16777619
		}
		return fmt.Sprintf("%d bytes %08x", len(b), h)
	}
	read := func(what string, ptr cuda.DevPtr, n int64) {
		b, err := cl.MemRead(p, ptr, n)
		rec(what, sum(b), " ", err)
	}
	rec("Hello", cl.Hello(p, "fn", 8<<20))
	var ptr [3]cuda.DevPtr
	for i, size := range []int64{1 << 20, 64 << 10, 4096} {
		a, err := cl.Malloc(p, size)
		rec("Malloc", a, err)
		ptr[i] = a
	}
	rec("MemWrite a", cl.MemWrite(p, ptr[0], pattern(1, 1<<20)))
	read("MemRead a", ptr[0], 1<<20)
	rec("MemWrite a again", cl.MemWrite(p, ptr[0], pattern(2, 1<<20)))
	read("MemRead a again", ptr[0], 1<<20)
	rec("MemWrite a interior", cl.MemWrite(p, ptr[0]+4096, pattern(3, 8192)))
	read("MemRead a interior", ptr[0]+4096, 8192)
	read("MemRead a across", ptr[0]+4000, 9000)
	rec("MemWrite a short", cl.MemWrite(p, ptr[0], pattern(4, 512<<10)))
	read("MemRead a whole", ptr[0], 1<<20)
	rec("MemWrite b part", cl.MemWrite(p, ptr[1], pattern(5, 1000)))
	read("MemRead b past the upload", ptr[1], 64<<10)
	rec("MemWrite b small", cl.MemWrite(p, ptr[1]+100, pattern(6, 10)))
	read("MemRead b", ptr[1], 2000)
	rec("MemWrite c over", cl.MemWrite(p, ptr[2], pattern(7, 4097)))
	rec("MemWrite c", cl.MemWrite(p, ptr[2], pattern(8, 4096)))
	read("MemRead c over", ptr[2], 4097)
	read("MemRead c negative", ptr[2], -1)
	read("MemRead c", ptr[2], 4096)
	read("MemRead c empty", ptr[2], 0)
	read("MemRead stray", 0x1234, 16)
	rec("Free b", cl.Free(p, ptr[1]))
	read("MemRead b freed", ptr[1], 16)
	rec("MemWrite b freed", cl.MemWrite(p, ptr[1], pattern(9, 16)))
	a, err := cl.Malloc(p, 64<<10)
	rec("Malloc again", a, err)
	read("MemRead fresh", a, 64<<10)
	rec("MemWrite fresh", cl.MemWrite(p, a, pattern(10, 64<<10)))
	read("MemRead fresh after the upload", a, 64<<10)
	rec("MemWrite a tail", cl.MemWrite(p, ptr[0]+(1<<20)-100, pattern(11, 100)))
	read("MemRead a tail", ptr[0]+(1<<20)-200, 200)
	rec("MemWrite c interior", cl.MemWrite(p, ptr[2]+4000, pattern(12, 96)))
	read("MemRead c interior", ptr[2]+3990, 106)
	read("MemRead c interior over", ptr[2]+3990, 107)
	read("MemRead a last", ptr[0], 1<<20)
	free, total, err := cl.MemGetInfo(p)
	rec("MemGetInfo", free, total, err)
	rec("Free a", cl.Free(p, ptr[0]))
	rec("Bye", cl.Bye(p))
	return out
}

// TestBulkScriptSimVsTCP: the same script through both transports returns
// the same values and leaves the same server statistics — the simulated
// transport's borrowed bulk and the bridge's owned one are two routes into
// one store.
func TestBulkScriptSimVsTCP(t *testing.T) {
	var simOut []string
	var simStats Stats
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		srv, cl := simRig(e, p)
		simOut = bulkScript(p, cl)
		simStats = srv.Stats()
	})

	ts := newTCPServer(t)
	cl, c, _ := ts.dial()
	defer c.Close()
	tcpOut := bulkScript(nil, cl)
	var tcpStats Stats
	ts.onServer(func(*sim.Proc) { tcpStats = ts.srv.Stats() })

	if len(simOut) != 40 {
		t.Fatalf("the script made %d calls, want 40", len(simOut))
	}
	for i := range simOut {
		if i >= len(tcpOut) || simOut[i] != tcpOut[i] {
			t.Fatalf("call %d diverges:\n sim %s\n tcp %s", i, simOut[i], tcpOut[min(i, len(tcpOut)-1)])
		}
	}
	if simStats != tcpStats {
		t.Fatalf("server statistics diverge:\n sim %+v\n tcp %+v", simStats, tcpStats)
	}
}
