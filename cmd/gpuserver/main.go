// Command gpuserver runs a DGSF GPU server reachable over real TCP sockets:
// simulated V100s, pre-warmed API servers, and the framed remoting protocol
// on the wire. One connection serves one function at a time, exactly like a
// DGSF API server; cmd/dgsf-run is the matching client.
//
//	gpuserver -addr :7070 -gpus 4 -per-gpu 2
//
// The GPUs and their timing are simulated (see DESIGN.md), but everything
// on the wire — framing, per-call marshaling, batching, dispatch — is the
// real remoting stack.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"dgsf/internal/apiserver"
	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/gpu"
	"dgsf/internal/remoting"
	"dgsf/internal/sim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	gpus := flag.Int("gpus", 4, "simulated GPUs")
	perGPU := flag.Int("per-gpu", 1, "API servers per GPU")
	noPrewarm := flag.Bool("no-prewarm", false, "skip runtime/handle pre-initialization")
	flag.Parse()

	e := sim.NewOpenEngine(1)
	devs := make([]*gpu.Device, *gpus)
	for i := range devs {
		devs[i] = gpu.New(e, gpu.V100Config(i))
	}

	// Manager phase: create and pre-warm the API servers.
	var servers []*apiserver.Server
	id := 0
	for g := 0; g < *gpus; g++ {
		for k := 0; k < *perGPU; k++ {
			rt := cuda.NewRuntime(e, devs, cuda.DefaultCosts())
			srv := apiserver.NewServer(e, rt, apiserver.Config{
				ID:          id,
				HomeDev:     g,
				PoolHandles: !*noPrewarm,
				LibCosts:    cudalibs.DefaultCosts(),
			})
			servers = append(servers, srv)
			id++
		}
	}
	for _, srv := range servers {
		srv := srv
		if !*noPrewarm {
			<-e.Inject(fmt.Sprintf("prewarm-%d", srv.ID()), func(p *sim.Proc) {
				if err := srv.Prewarm(p); err != nil {
					log.Fatalf("prewarm: %v", err)
				}
			})
		}
		e.InjectDaemon(fmt.Sprintf("apiserver-%d", srv.ID()), srv.Run)
	}
	// The engine is read on its own loop, here and below: a process
	// injected after the others sees the state they left.
	var booted time.Duration
	<-e.Inject("boot-clock", func(p *sim.Proc) { booted = p.Now() })
	log.Printf("gpuserver: %d GPUs, %d API servers pre-warmed (virtual boot time %v)", *gpus, len(servers), booted)

	// Free API server pool: one connection leases one server.
	free := make(chan *apiserver.Server, len(servers))
	for _, srv := range servers {
		free <- srv
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("gpuserver: listening on %s, capacity %d", ln.Addr(), len(servers))
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		srv := <-free
		log.Printf("gpuserver: %s -> API server %d (GPU %d)", conn.RemoteAddr(), srv.ID(), srv.HomeDev())
		done := remoting.ServeConn(e, conn, srv.Inbox)
		go func() {
			<-done
			// If the guest vanished without Bye, reset the session so the
			// server is reusable.
			var st apiserver.Stats
			<-e.Inject("reset", func(p *sim.Proc) {
				reset := sim.NewQueue[struct{}](e)
				srv.Inbox.Send(remoting.Request{Ctrl: apiserver.ResetRequest{Done: reset}})
				reset.Recv(p)
				st = srv.Stats()
			})
			log.Printf("gpuserver: API server %d released (%d calls, %d kernels handled)", srv.ID(), st.CallsHandled, st.Kernels)
			free <- srv
		}()
	}
}
