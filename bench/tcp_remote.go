package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"

	"dgsf/internal/apiserver"
	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/gpu"
	"dgsf/internal/guest"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
	"dgsf/internal/workloads"
)

// tcpRemote drives one real TCP connection over the host's loopback
// interface (not a link: no wire latency, no loss) from a guest on one
// open-mode engine to an API server on another, in this process. Each
// repetition uses the transport three ways: small sync calls, a pipelined
// function body, and vectored bulk transfers.
type tcpRemote struct {
	seed  int64
	full  tcpSizes
	quick tcpSizes

	ln      net.Listener
	caller  remoting.AsyncCaller
	served  <-chan struct{}
	server  *sim.Engine
	client  *sim.Engine
	srv     *apiserver.Server
	payload []byte
}

type tcpSizes struct {
	smallCalls int
	spec       *workloads.Spec
	bulkOps    int
	bulkBytes  int
}

func newTCPRemote(seed int64, quick bool) *tcpRemote {
	qs := quickSpecs()[3] // faceidentification
	w := &tcpRemote{
		seed:  seed,
		full:  tcpSizes{20_000, workloads.FaceIdentification(), 500, 1 << 20},
		quick: tcpSizes{2000, qs, 16, 1 << 20},
	}
	if quick {
		w.full = w.quick
	}
	return w
}

// setup builds both engines, the server and the connection, then warms up.
// A tracer must be installed before an open engine's first Inject, so an
// instance that will run traced repetitions is told here.
func (w *tcpRemote) setup(tr *tracer) error {
	w.server = sim.NewOpenEngine(w.seed)
	w.client = sim.NewOpenEngine(w.seed)
	if tr != nil {
		w.server.SetTrace(tr.simHook)
		w.client.SetTrace(tr.simHook)
	}
	dev := gpu.New(w.server, gpu.V100Config(0))
	rt := cuda.NewRuntime(w.server, []*gpu.Device{dev}, cuda.DefaultCosts())
	w.srv = apiserver.NewServer(w.server, rt, apiserver.Config{
		PoolHandles: true,
		CUDACosts:   cuda.DefaultCosts(),
		LibCosts:    cudalibs.DefaultCosts(),
	})
	var perr error
	<-w.server.Inject("prewarm", func(p *sim.Proc) { perr = w.srv.Prewarm(p) })
	if perr != nil {
		return fmt.Errorf("prewarm: %w", perr)
	}
	w.server.InjectDaemon("apiserver", w.srv.Run)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.ln = ln
	accepted := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			w.served = remoting.ServeConn(w.server, c, w.srv.Inbox)
		}
		accepted <- err
	}()
	w.caller, err = remoting.DialTCP(ln.Addr().String())
	if err != nil {
		ln.Close()
		<-accepted
		return err
	}
	if err := <-accepted; err != nil {
		return err
	}
	w.payload = make([]byte, w.full.bulkBytes)
	rand.New(rand.NewSource(w.seed)).Read(w.payload)

	out := w.run(w.quick, tr)
	if len(out.errs) > 0 {
		return fmt.Errorf("warm-up: %s", out.errs[0])
	}
	return nil
}

func (w *tcpRemote) rep(tr *tracer) repOut { return w.run(w.full, tr) }

// close tears the connection and both engines down and waits for the
// bridge's reader goroutine to exit.
func (w *tcpRemote) close() {
	if w.caller != nil {
		w.caller.Close()
	}
	if w.served != nil {
		<-w.served
	}
	if w.ln != nil {
		w.ln.Close()
	}
	if w.server != nil {
		w.server.Stop()
		w.client.Stop()
	}
}

// serverStats reads the API server's counters on its own engine, which
// orders the read after the server process's last update.
func (w *tcpRemote) serverStats() apiserver.Stats {
	var st apiserver.Stats
	<-w.server.Inject("stats", func(*sim.Proc) { st = w.srv.Stats() })
	return st
}

// bulkAPI is what phase c needs: gen.API plus the allocation-free read.
type bulkAPI interface {
	gen.API
	bulkReader
}

// session runs body as one function session over the shared connection.
func (w *tcpRemote) session(name string, opt guest.Opt, tr *tracer, body func(p *sim.Proc, api bulkAPI) error) (guest.Stats, error) {
	var st guest.Stats
	var err error
	<-w.client.Inject(name, func(p *sim.Proc) {
		c := w.caller
		if tr != nil {
			tr.freshCtx(p.Name())
			c = tr.wrapConn(p, c)
		}
		lib := guest.New(c, opt)
		var api bulkAPI = lib
		if tr != nil {
			api = tr.wrapAPI(p, lib)
		}
		if err = api.Hello(p, name, 8<<30); err != nil {
			return
		}
		err = body(p, api)
		lib.FlushBatch(p)
		if berr := api.Bye(p); err == nil {
			err = berr
		}
		st = lib.Stats()
	})
	return st, err
}

func (w *tcpRemote) run(sz tcpSizes, tr *tracer) repOut {
	out := newRepOut()
	wire0 := snapshotWire()
	srv0 := w.serverStats()
	var g guest.Stats
	start := hostNow()

	// Phase a: small sync calls, each timed.
	rtts := make([]float64, 0, sz.smallCalls)
	var ms0, ms1 runtime.MemStats
	st, err := w.session("fn-small", tierSync, tr, func(p *sim.Proc, api bulkAPI) error {
		runtime.ReadMemStats(&ms0)
		for i := 0; i < sz.smallCalls; i++ {
			t0 := hostNow()
			if _, _, err := api.MemGetInfo(p); err != nil {
				return err
			}
			rtts = append(rtts, float64(hostNow().Sub(t0))/1e3)
		}
		runtime.ReadMemStats(&ms1)
		return nil
	})
	out.failIf(err)
	addGuest(&g, st)

	// Phase b: one function body at the pipelined tier.
	startB := hostNow()
	stB, err := w.session("fn-"+sz.spec.Name, tierPipelined, tr, func(p *sim.Proc, api bulkAPI) error {
		return sz.spec.RunBody(p, api, nil)
	})
	hostB := hostNow().Sub(startB).Seconds()
	out.failIf(err)
	addGuest(&g, stB)

	// Phase c: vectored bulk writes and reads, checked byte for byte.
	payload := w.payload[:sz.bulkBytes]
	readBuf := make([]byte, sz.bulkBytes)
	var writeS, readS float64
	mismatched := 0
	startC := hostNow()
	st, err = w.session("fn-bulk", tierSync, tr, func(p *sim.Proc, api bulkAPI) error {
		ptr, err := api.Malloc(p, int64(sz.bulkBytes))
		if err != nil {
			return err
		}
		for i := 0; i < sz.bulkOps; i++ {
			payload[0] = byte(i) // every round trip carries different bytes
			t0 := hostNow()
			if err := api.MemWrite(p, ptr, payload); err != nil {
				return err
			}
			t1 := hostNow()
			got, err := api.MemReadInto(p, ptr, int64(sz.bulkBytes), readBuf)
			if err != nil {
				return err
			}
			t2 := hostNow()
			writeS += t1.Sub(t0).Seconds()
			readS += t2.Sub(t1).Seconds()
			if !bytes.Equal(got, payload) {
				mismatched++
			}
		}
		return api.Free(p, ptr)
	})
	hostC := hostNow().Sub(startC).Seconds()
	out.hostS = hostNow().Sub(start).Seconds()
	out.failIf(err)
	addGuest(&g, st)
	if mismatched > 0 {
		out.failN(mismatched, errors.New("bulk bytes read differ from bytes written"))
	}

	moved := float64(2*sz.bulkOps*sz.bulkBytes) / (1 << 20)
	out.calls = int64(g.Total)
	out.invocations = 1
	out.attempted = out.calls + int64(sz.bulkOps)
	out.vals["calls_per_s"] = ratio(float64(stB.Total), hostB)
	out.vals["bulk_mb_per_s"] = ratio(moved, hostC)
	out.vals["rtt_p50_us"] = percentile(rtts, 50)

	srv := w.serverStats()
	srv.CallsHandled -= srv0.CallsHandled
	srv.BatchesHandled -= srv0.BatchesHandled
	srv.AsyncHandled -= srv0.AsyncHandled
	srv.FencesHandled -= srv0.FencesHandled
	srv.Kernels -= srv0.Kernels
	d := newDigest()
	d.add(g, srv.CallsHandled, srv.BatchesHandled, srv.AsyncHandled, srv.FencesHandled, srv.Kernels, mismatched)
	out.digest = d.sum()

	ls := out.layers
	ls.guestCounts(g)
	ls.addServer(srv)
	ls.wire(snapshotWire().Sub(wire0))
	ls["remoting.tcp_rtt_p99_us"] = percentile(rtts, 99)
	ls["remoting.tcp_allocs_per_roundtrip"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(sz.smallCalls))
	ls["remoting.tcp_bulk_write_mb_per_s"] = ratio(moved/2, writeS)
	ls["remoting.tcp_bulk_read_mb_per_s"] = ratio(moved/2, readS)
	if tr != nil {
		ls.fromTracer(tr, out.calls, out.invocations)
	}
	return out
}
