package apiserver

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/gpu"
	"dgsf/internal/guest"
	"dgsf/internal/remoting"
	"dgsf/internal/sim"
)

// lifecycleHandles is every value the lifecycle script gets back from the
// server. The literals below were captured at a6d90cb: a guest sees the same
// handles whatever the server does behind them.
type lifecycleHandles struct {
	fn     cuda.FnPtr
	stream cuda.StreamHandle
	event  cuda.EventHandle
	dnn    [2]cudalibs.DNNHandle
	blas   cudalibs.BLASHandle
	desc   cudalibs.Descriptor
	host   uint64
	ptr    cuda.DevPtr
}

var wantLifecycleHandles = lifecycleHandles{
	fn:     0x5000_0000_0001,
	stream: 0x7000_0002,
	event:  0x7100_0003,
	dnn:    [2]cudalibs.DNNHandle{0x7200_0004, 0x7200_0005},
	blas:   0x7300_0006,
	desc:   4,
	host:   0x6100_0000_1000,
	ptr:    0x7f00_0000_0000,
}

// idleHandles reports how many cuDNN and cuBLAS handles sit in the pools.
func idleHandles(s *Server) [2]int {
	return [2]int{len(s.idle[cudalibs.DNN]), len(s.idle[cudalibs.BLAS])}
}

// TestSessionEndLeavesNothing drives one session that holds a resource of
// every kind over four itineraries and ends it three ways. Whatever the path,
// no device it touched may keep a byte or an allocation of it — a context left
// on a GPU the session only visited is invisible to the GPU server's placement
// arithmetic — and the guest-visible handles and the virtual instant of the
// end are those of a6d90cb (the instants less the version hello it paid),
// where the six rows that leave GPU 1 before they end fail with +303 MiB and
// +1 allocation there.
func TestSessionEndLeavesNothing(t *testing.T) {
	itineraries := []struct {
		name string
		hops []int
	}{
		{"stay", nil},
		{"0-1", []int{1}},
		{"0-1-2", []int{1, 2}},
		{"0-1-0", []int{1, 0}},
	}
	ends := []string{"Bye", "Reset", "Crash"}
	// Virtual instant after the end (for a crash: when the run loop exited),
	// captured at a6d90cb less 50 µs: the connection no longer opens with a
	// version hello, whose round trip was the one 50 µs in every instant.
	// Destroying a context charges no time, so the rows that used to leak
	// keep theirs.
	wantNow := map[string]time.Duration{
		"stay/Bye": 11205066600, "stay/Reset": 11205016600, "stay/Crash": 11205015100,
		"0-1/Bye": 11465418540, "0-1/Reset": 11465368540, "0-1/Crash": 11465365540,
		"0-1-2/Bye": 11725768980, "0-1-2/Reset": 11725718980, "0-1-2/Crash": 11725715980,
		"0-1-0/Bye": 11475761480, "0-1-0/Reset": 11475711480, "0-1-0/Crash": 11475709980,
	}
	for _, it := range itineraries {
		for _, end := range ends {
			name := it.name + "/" + end
			t.Run(name, func(t *testing.T) {
				runLifecycle(t, it.hops, end, wantNow[name])
			})
		}
	}
}

func runLifecycle(t *testing.T, hops []int, end string, wantNow time.Duration) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		costs := cuda.DefaultCosts()
		costs.InitJitter = 0
		devs := make([]*gpu.Device, 3)
		for i := range devs {
			devs[i] = gpu.New(e, gpu.V100Config(i))
		}
		srv := NewServer(e, cuda.NewRuntime(e, devs, costs), Config{PoolHandles: true, CUDACosts: costs, LibCosts: cudalibs.DefaultCosts()})
		var exited time.Duration
		p.SpawnDaemon("apiserver", func(p *sim.Proc) {
			srv.Run(p)
			exited = p.Now()
		})
		conn := remoting.Dial(e, &remoting.Listener{Incoming: srv.Inbox}, remoting.NetProfile{RTT: 50 * time.Microsecond})
		lib := guest.New(conn, guest.OptNone)
		p.Sleep(10 * time.Second) // prewarm

		type footprint struct {
			used int64
			live int
		}
		before := make([]footprint, len(devs))
		for i, d := range devs {
			before[i] = footprint{d.UsedBytes(), d.LiveAllocs()}
		}
		pooled := idleHandles(srv)

		var got lifecycleHandles
		var err error
		must(lib.Hello(p, "fn", 4<<30))
		fns, err := lib.RegisterKernels(p, []string{"touch"})
		must(err)
		got.fn = fns[0]
		got.stream, err = lib.StreamCreate(p)
		must(err)
		got.event, err = lib.EventCreate(p)
		must(err)
		must(lib.EventRecord(p, got.event, got.stream))
		for i := range got.dnn { // the first comes from the pool, the second is created
			got.dnn[i], err = lib.DnnCreate(p)
			must(err)
		}
		got.blas, err = lib.BlasCreate(p)
		must(err)
		got.desc, err = lib.DnnCreateTensorDescriptor(p)
		must(err)
		got.host, err = lib.MallocHost(p, 1<<20)
		must(err)
		got.ptr, err = lib.Malloc(p, 64<<20)
		must(err)
		if got != wantLifecycleHandles {
			t.Errorf("handles = %#x, want %#x", got, wantLifecycleHandles)
		}

		for _, target := range hops {
			done := sim.NewQueue[time.Duration](e)
			srv.Inbox.Send(remoting.Request{Ctrl: MigrateRequest{TargetDev: target, Done: done}})
			if d, _ := done.Recv(p); d <= 0 {
				t.Fatalf("move to GPU %d took %v", target, d)
			}
		}
		// Every handle still translates wherever the session ended up.
		must(lib.LaunchKernel(p, cuda.LaunchParams{Fn: got.fn, Stream: got.stream, Duration: time.Millisecond, Mutates: []cuda.DevPtr{got.ptr}}))
		must(lib.StreamSynchronize(p, got.stream))
		must(lib.EventRecord(p, got.event, got.stream))
		must(lib.EventSynchronize(p, got.event))
		for _, h := range got.dnn {
			must(lib.DnnForward(p, h, "conv", time.Millisecond, []cuda.DevPtr{got.ptr}, []uint64{uint64(got.desc)}))
		}
		must(lib.BlasGemm(p, got.blas, time.Millisecond, []cuda.DevPtr{got.ptr}))
		must(lib.DnnSetTensorDescriptor(p, got.desc))

		now := func() time.Duration { return p.Now() }
		switch end {
		case "Bye":
			must(lib.Bye(p))
		case "Reset":
			done := sim.NewQueue[struct{}](e)
			srv.Inbox.Send(remoting.Request{Ctrl: ResetRequest{Done: done}})
			done.Recv(p)
		case "Crash":
			srv.Crash()
			p.Sleep(time.Second) // the run loop scavenges on its way out
			now = func() time.Duration { return exited }
		}
		if now() != wantNow {
			t.Errorf("virtual instant after the end = %d, want %d", now(), wantNow)
		}

		home := srv.HomeDev()
		for i, d := range devs {
			after := footprint{d.UsedBytes(), d.LiveAllocs()}
			if i == home && end == "Crash" {
				// The dead process's library handles go with it.
				if after.used > before[i].used || after.live > before[i].live {
					t.Errorf("home GPU %d after the crash: %+v, before the session %+v", i, after, before[i])
				}
				continue
			}
			if after != before[i] {
				t.Errorf("GPU %d after the end: %+v, before the session %+v (%+d MiB, %+d allocations)", i, after, before[i],
					(after.used-before[i].used)>>20, after.live-before[i].live)
			}
		}
		if srv.Busy() || srv.CurrentDev() != home {
			t.Errorf("Busy = %v, CurrentDev = %d, want idle on home GPU %d", srv.Busy(), srv.CurrentDev(), home)
		}
		if n := srv.libs.DescriptorCount(); n != 0 {
			t.Errorf("%d descriptors outlive the session", n)
		}
		if end != "Crash" {
			if got := idleHandles(srv); got != pooled {
				t.Errorf("pooled handles [cuDNN cuBLAS] = %v, want the prewarmed %v", got, pooled)
			}
		}
	})
}

// TestSessionTablesStartEmpty opens a session on a server whose previous
// session ended by Bye, or by the release a crash runs, after it allocated
// device and host memory, registered a kernel and created a stream, a cuDNN
// and a cuBLAS handle. The end keeps that session's tables for the next
// begin: every handle of the first session must fail in the second exactly as
// it does on a server that never hosted one, and the second's own handles and
// Stats must be a fresh server's.
func TestSessionTablesStartEmpty(t *testing.T) {
	type handles struct {
		ptr    cuda.DevPtr
		host   uint64
		fn     cuda.FnPtr
		stream cuda.StreamHandle
		dnn    cudalibs.DNNHandle
		blas   cudalibs.BLASHandle
	}
	// fill gives the open session one resource of each kind.
	fill := func(t *testing.T, p *sim.Proc, srv *Server) (h handles) {
		var fns []cuda.FnPtr
		var errs [8]error
		h.ptr, errs[0] = srv.Malloc(p, 64<<20)
		h.host, errs[1] = srv.MallocHost(p, 1<<20)
		fns, errs[2] = srv.RegisterKernels(p, []string{"touch"})
		h.stream, errs[3] = srv.StreamCreate(p)
		h.dnn, errs[4] = srv.DnnCreate(p)
		h.blas, errs[5] = srv.BlasCreate(p)
		errs[6] = srv.DnnForward(p, h.dnn, "conv", time.Millisecond, nil, nil)
		errs[7] = srv.BlasGemm(p, h.blas, time.Millisecond, nil)
		if err := errors.Join(errs[:]...); err != nil {
			t.Fatalf("filling the session: %v", err)
		}
		h.fn = fns[0]
		return h
	}
	// second opens a session, uses the first session's handles in it and
	// fills it: what each call returned, then the session's own virtual
	// handles and the server's Stats. (The device pointer is the context's
	// address space, which a crash leaves where it was, not the session's.)
	second := func(t *testing.T, p *sim.Proc, srv *Server, old handles) (out []string) {
		if err := srv.Hello(p, "b", 1<<30); err != nil {
			t.Fatal(err)
		}
		_, attrErr := srv.PointerGetAttributes(p, old.ptr)
		for _, c := range []struct {
			call string
			err  error
		}{
			{"PointerGetAttributes", attrErr},
			{"Free", srv.Free(p, old.ptr)},
			{"FreeHost", srv.FreeHost(p, old.host)},
			{"LaunchKernel", srv.LaunchKernel(p, cuda.LaunchParams{Fn: old.fn, Duration: time.Millisecond})},
			{"StreamSynchronize", srv.StreamSynchronize(p, old.stream)},
			{"DnnForward", srv.DnnForward(p, old.dnn, "conv", time.Millisecond, nil, nil)},
			{"BlasGemm", srv.BlasGemm(p, old.blas, time.Millisecond, nil)},
			{"StreamDestroy", srv.StreamDestroy(p, old.stream)},
			{"DnnDestroy", srv.DnnDestroy(p, old.dnn)},
			{"BlasDestroy", srv.BlasDestroy(p, old.blas)},
		} {
			if c.err == nil {
				t.Errorf("%s with a handle of the ended session succeeded", c.call)
			}
			out = append(out, fmt.Sprintf("%s: %v", c.call, c.err))
		}
		own := fill(t, p, srv)
		own.ptr = 0
		return append(out, fmt.Sprintf("own handles %#v", own), fmt.Sprintf("stats %+v", srv.Stats()))
	}
	// run serves the second session on a new server, after a first one if
	// end names how it ends.
	run := func(t *testing.T, end string, old handles) (out []string, first handles) {
		e := sim.NewEngine(1)
		e.Run("root", func(p *sim.Proc) {
			srv := newFastServer(e, Config{PoolHandles: true}, func(string, func(*sim.Proc)) {})
			if err := srv.Prewarm(p); err != nil {
				t.Fatal(err)
			}
			if end != "" {
				if err := srv.Hello(p, "a", 1<<30); err != nil {
					t.Fatal(err)
				}
				first = fill(t, p, srv)
				var err error
				if end == "Bye" {
					err = srv.Bye(p)
				} else {
					err = srv.release(p, true)
				}
				if err != nil {
					t.Fatal(err)
				}
				old = first
			}
			out = second(t, p, srv, old)
		})
		return out, first
	}
	for _, end := range []string{"Bye", "Crash"} {
		t.Run(end, func(t *testing.T) {
			reused, first := run(t, end, handles{})
			fresh, _ := run(t, "", first)
			for i := range fresh {
				if reused[i] != fresh[i] {
					t.Errorf("after %s:\n  %s\non a fresh server:\n  %s", end, reused[i], fresh[i])
				}
			}
		})
	}
}

// TestPooledHandlesFollowTheServer is why taking a handle from the pool needs
// no rebind (DnnCreate had one, BlasCreate never did): every move rebinds the
// idle handles of both libraries, so whenever a session asks, the pool is
// already bound to the device the server executes on.
func TestPooledHandlesFollowTheServer(t *testing.T) {
	costs := cuda.DefaultCosts()
	costs.InitJitter = 0
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		r := newRig(e, p, 2, Config{PoolHandles: true, CUDACosts: costs, LibCosts: cudalibs.DefaultCosts()}, guest.OptNone)
		p.Sleep(10 * time.Second) // prewarm
		home := r.devs[0].UsedBytes()
		if err := r.lib.Hello(p, "fn", 1<<30); err != nil {
			t.Fatal(err)
		}
		done := sim.NewQueue[time.Duration](e)
		r.srv.Inbox.Send(remoting.Request{Ctrl: MigrateRequest{TargetDev: 1, Done: done}})
		done.Recv(p)
		if got, want := r.devs[0].UsedBytes(), costs.CtxBytes; got != want {
			t.Fatalf("GPU 0 holds %d bytes after the move, want its context's %d: an idle handle stayed behind", got, want)
		}
		start := p.Now()
		dnn, err := r.lib.DnnCreate(p)
		if err != nil {
			t.Fatal(err)
		}
		blas, err := r.lib.BlasCreate(p)
		if err != nil {
			t.Fatal(err)
		}
		if d := p.Now() - start; d > 50*time.Millisecond {
			t.Fatalf("creates after the move took %v: not served from the pool", d)
		}
		if err := r.lib.DnnForward(p, dnn, "conv", time.Millisecond, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := r.lib.BlasGemm(p, blas, time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
		if busy := [2]time.Duration{r.devs[0].ComputeBusy(), r.devs[1].ComputeBusy()}; busy[0] != 0 || busy[1] == 0 {
			t.Fatalf("compute time per GPU = %v, want all of it on GPU 1", busy)
		}
		if err := r.lib.Bye(p); err != nil {
			t.Fatal(err)
		}
		if got := [2]int64{r.devs[0].UsedBytes(), r.devs[1].UsedBytes()}; got != [2]int64{home, 0} {
			t.Fatalf("bytes in use after Bye = %v, want %v", got, [2]int64{home, 0})
		}
	})
}
