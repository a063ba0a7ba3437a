// Remote: guest library and API server in separate "machines" talking over
// a real TCP socket on localhost — the same framed protocol, generated
// marshaling and dispatch the experiments exercise in-process. The GPU is
// simulated; the wire is not.
package main

import (
	"fmt"
	"log"
	"net"

	"dgsf/internal/apiserver"
	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/gpu"
	"dgsf/internal/guest"
	"dgsf/internal/remoting"
	"dgsf/internal/sim"
	"dgsf/internal/workloads"
)

func main() {
	// --- GPU server side: its own engine, devices and one API server ---
	serverEngine := sim.NewOpenEngine(1)
	devs := []*gpu.Device{gpu.New(serverEngine, gpu.V100Config(0))}
	rt := cuda.NewRuntime(serverEngine, devs, cuda.DefaultCosts())
	srv := apiserver.NewServer(serverEngine, rt, apiserver.Config{
		PoolHandles: true,
		CUDACosts:   cuda.DefaultCosts(),
		LibCosts:    cudalibs.DefaultCosts(),
	})
	<-serverEngine.Inject("prewarm", func(p *sim.Proc) {
		if err := srv.Prewarm(p); err != nil {
			log.Fatal(err)
		}
	})
	serverEngine.InjectDaemon("apiserver", srv.Run)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			remoting.ServeConn(serverEngine, conn, srv.Inbox)
		}
	}()
	fmt.Printf("GPU server listening on %s (API server pre-warmed in %v of virtual time)\n",
		ln.Addr(), serverEngine.Now())

	// --- function side: separate engine, dials over real TCP ---
	caller, err := remoting.DialTCP(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer caller.Close()

	clientEngine := sim.NewOpenEngine(2)
	spec := workloads.KMeans()
	<-clientEngine.Inject("fn", func(p *sim.Proc) {
		lib := guest.New(caller, guest.OptAll)
		if err := lib.Hello(p, spec.Name, spec.MemLimit); err != nil {
			log.Fatal(err)
		}
		var phases workloads.Phases
		if err := spec.RunBody(p, lib, &phases); err != nil {
			log.Fatal(err)
		}
		if err := lib.Bye(p); err != nil {
			log.Fatal(err)
		}
		st := lib.Stats()
		fmt.Printf("ran %s remotely: %d calls interposed, %d round trips over the socket\n",
			spec.Name, st.Total, st.Roundtrips())
	})
	stats := srv.Stats()
	fmt.Printf("server side: handled %d calls, launched %d kernels, GPU busy %v of virtual time\n",
		stats.CallsHandled, stats.Kernels, devs[0].ComputeBusy())
}
