package apiserver

import (
	"net"
	"runtime"
	"testing"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/gpu"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// The API-server layer's micro-benchmarks, published as BENCH_apiserver.json
// and gated in CI. The Dispatch rows time the request loop alone — a process
// puts a Request in the inbox and takes the Response off its reply queue, no
// transport in between — with the bulk region borrowed, as the simulated
// transport delivers it. The TCP row times a MemWrite/MemReadInto pair over a
// loopback DialTCP <-> ServeConn bridge, where the region arrives owned.
// Everything here uses exported surface only, so the file also compiles at
// the commit a baseline is taken from.

// newFastServer builds one device without copy or kernel latency, its
// runtime and an API server whose request loop runs as a daemon on e, open
// or run mode alike. The package's bulk tests share it.
func newFastServer(e *sim.Engine, cfg Config, spawn func(name string, fn func(*sim.Proc))) *Server {
	c := gpu.V100Config(0)
	c.CopyLat, c.KernelLat = 0, 0
	rt := cuda.NewRuntime(e, []*gpu.Device{gpu.New(e, c)}, cuda.Costs{})
	srv := NewServer(e, rt, cfg)
	spawn("apiserver", srv.Run)
	return srv
}

// benchDispatch opens a session with one 1 MiB allocation, lets build encode
// a request against it and sends that request b.N times.
func benchDispatch(b *testing.B, bulkBytes int, build func(enc *wire.Encoder, ptr cuda.DevPtr)) {
	benchRequest(b, Config{}, bulkBytes, func(p *sim.Proc, srv *Server, enc *wire.Encoder) {
		ptr, err := srv.Malloc(p, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.MemWrite(p, ptr, make([]byte, 1<<20)); err != nil {
			b.Fatal(err)
		}
		build(enc, ptr)
	})
}

// benchRequest opens a session on a pre-warmed server, lets build set it up
// and encode one request, and sends that request b.N times.
func benchRequest(b *testing.B, cfg Config, bulkBytes int, build func(p *sim.Proc, srv *Server, enc *wire.Encoder)) {
	b.ReportAllocs()
	e := sim.NewEngine(1)
	e.Run("bench", func(p *sim.Proc) {
		srv := newFastServer(e, cfg, func(name string, fn func(*sim.Proc)) { p.SpawnDaemon(name, fn) })
		if err := srv.Prewarm(p); err != nil {
			b.Fatal(err)
		}
		if err := srv.Hello(p, "bench", 64<<20); err != nil {
			b.Fatal(err)
		}
		var enc wire.Encoder
		build(p, srv, &enc)
		var bulk []byte
		if bulkBytes > 0 {
			bulk = make([]byte, bulkBytes)
			b.SetBytes(int64(bulkBytes))
		}
		replies := sim.NewQueue[remoting.Response](e)
		req := remoting.Request{Payload: enc.Bytes(), Bulk: bulk, ReplyTo: replies}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.Inbox.Send(req)
			r, _ := replies.Recv(p)
			if len(r.Payload) < 4 || r.Payload[0]|r.Payload[1]|r.Payload[2]|r.Payload[3] != 0 {
				b.Fatalf("status %v", r.Payload)
			}
			r.Release() // as whoever takes a Response off a reply queue does
			if i%1024 == 1023 {
				// Nothing above takes virtual time, so a kernel only enqueued
				// (the launch row) would wait for the end of the benchmark and
				// the row would time a stream queue growing to b.N entries.
				p.Sleep(2 * time.Millisecond)
			}
		}
	})
}

// BenchmarkDispatchSmall_MemGetInfo is the loop's floor: decode, one call
// answered from the session, encode.
func BenchmarkDispatchSmall_MemGetInfo(b *testing.B) {
	benchDispatch(b, 0, func(enc *wire.Encoder, _ cuda.DevPtr) { enc.U16(gen.CallMemGetInfo) })
}

// BenchmarkDispatchMemWrite_1MiB stores a borrowed 1 MiB bulk region.
func BenchmarkDispatchMemWrite_1MiB(b *testing.B) {
	benchDispatch(b, 1<<20, func(enc *wire.Encoder, ptr cuda.DevPtr) {
		gen.AppendMemWriteCall(enc, ptr)
	})
}

// BenchmarkDispatchMemRead_1MiB answers with 1 MiB as a vectored reply.
func BenchmarkDispatchMemRead_1MiB(b *testing.B) {
	b.SetBytes(1 << 20)
	benchDispatch(b, 0, func(enc *wire.Encoder, ptr cuda.DevPtr) {
		gen.AppendMemReadCall(enc, ptr, 1<<20)
	})
}

// BenchmarkDispatchDnnForward_Pooled is a cuDNN primitive on a handle taken
// from the pool: one virtual-handle translation, one kernel on the default
// stream, one synchronize.
func BenchmarkDispatchDnnForward_Pooled(b *testing.B) {
	benchRequest(b, Config{PoolHandles: true}, 0, func(p *sim.Proc, srv *Server, enc *wire.Encoder) {
		h, err := srv.DnnCreate(p)
		if err != nil {
			b.Fatal(err)
		}
		gen.AppendDnnForwardCall(enc, h, "conv", time.Microsecond, nil, nil)
	})
}

// BenchmarkDispatchLaunchOnStream is a kernel launch on a created stream:
// function pointer and stream handle both translate.
func BenchmarkDispatchLaunchOnStream(b *testing.B) {
	benchRequest(b, Config{}, 0, func(p *sim.Proc, srv *Server, enc *wire.Encoder) {
		fns, err := srv.RegisterKernels(p, []string{"k"})
		if err != nil {
			b.Fatal(err)
		}
		st, err := srv.StreamCreate(p)
		if err != nil {
			b.Fatal(err)
		}
		gen.AppendLaunchKernelCall(enc, cuda.LaunchParams{Fn: fns[0], Stream: st, Duration: time.Microsecond})
	})
}

// BenchmarkSessionOpenClose is a whole short session on a pre-warmed server:
// Hello, a stream and a handle of each library, Bye. Its allocations are what
// the resource table costs per session rather than per call. Most of its time
// is the stream's worker process starting and ending; whether the Go runtime
// wakes a second P to steal that fresh goroutine made the row bimodal (6-12 us
// on identical code), so it runs on one P, as a simulation does anyway, and
// through 2000 sessions before the timer starts.
func BenchmarkSessionOpenClose(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	e := sim.NewEngine(1)
	e.Run("bench", func(p *sim.Proc) {
		srv := newFastServer(e, Config{PoolHandles: true}, func(name string, fn func(*sim.Proc)) { p.SpawnDaemon(name, fn) })
		if err := srv.Prewarm(p); err != nil {
			b.Fatal(err)
		}
		session := func() {
			err := srv.Hello(p, "bench", 64<<20)
			if err == nil {
				_, err = srv.StreamCreate(p)
			}
			if err == nil {
				_, err = srv.DnnCreate(p)
			}
			if err == nil {
				_, err = srv.BlasCreate(p)
			}
			if err == nil {
				err = srv.Bye(p)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 2000; i++ {
			session()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			session()
		}
	})
}

// BenchmarkTCPBulkWriteRead_1MiB is one MemWrite plus one MemReadInto of
// 1 MiB over a loopback connection, timed from the guest's side; B/op and
// allocs/op count both ends of the connection.
func BenchmarkTCPBulkWriteRead_1MiB(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(2 << 20)
	e := sim.NewOpenEngine(1)
	defer e.Stop()
	srv := newFastServer(e, Config{}, e.InjectDaemon)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			remoting.ServeConn(e, c, srv.Inbox)
		}
	}()
	c, err := remoting.DialTCP(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	cl := &gen.Client{T: c}
	if err := cl.Hello(nil, "bench", 64<<20); err != nil {
		b.Fatal(err)
	}
	ptr, err := cl.Malloc(nil, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	data, dst := make([]byte, 1<<20), make([]byte, 1<<20)
	pair := func() {
		if err := cl.MemWrite(nil, ptr, data); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.MemReadInto(nil, ptr, 1<<20, dst); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // past the first buffers of either end
		pair()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair()
	}
}
