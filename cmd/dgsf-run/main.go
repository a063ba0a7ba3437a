// Command dgsf-run executes one of the paper's workloads against a remote
// DGSF GPU server (cmd/gpuserver) over real TCP, through the guest library
// at a chosen optimization tier. It prints the workload's virtual-time
// phase breakdown and the guest library's call-disposition statistics.
//
//	dgsf-run -addr 127.0.0.1:7070 -workload faceidentification -opt all
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"dgsf/internal/guest"
	"dgsf/internal/remoting"
	"dgsf/internal/sim"
	"dgsf/internal/workloads"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "GPU server address")
	name := flag.String("workload", "kmeans", "workload: "+strings.Join(names(), ", "))
	opt := flag.String("opt", "all", "guest optimization tier: none, desc, all, async")
	flag.Parse()

	spec, err := workloads.ByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	var tier guest.Opt
	switch *opt {
	case "none":
		tier = guest.OptNone
	case "desc":
		tier = guest.OptLocalDescriptors
	case "all":
		tier = guest.OptAll
	case "async":
		tier = guest.OptAll | guest.OptAsync
	default:
		log.Fatalf("unknown tier %q", *opt)
	}

	caller, err := remoting.DialTCP(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer caller.Close()

	e := sim.NewOpenEngine(1)
	//lint:allow simdeterminism this command drives a real TCP server; wall time is the quantity being reported
	wallStart := time.Now()
	var phases workloads.Phases
	var stats guest.Stats
	<-e.Inject("fn-"+spec.Name, func(p *sim.Proc) {
		lib := guest.New(caller, tier)
		start := p.Now()
		if err := lib.Hello(p, spec.Name, spec.MemLimit); err != nil {
			log.Fatalf("hello: %v", err)
		}
		phases.Init = p.Now() - start
		if err := spec.RunBody(p, lib, &phases); err != nil {
			log.Fatalf("run: %v", err)
		}
		if err := lib.Bye(p); err != nil {
			log.Fatalf("bye: %v", err)
		}
		stats = lib.Stats()
	})

	fmt.Printf("workload %s over %s (guest tier %s)\n", spec.Name, *addr, *opt)
	fmt.Printf("  virtual time: init=%v load=%v process=%v total=%v\n",
		phases.Init.Round(time.Millisecond), phases.Load.Round(time.Millisecond),
		phases.Process.Round(time.Millisecond), phases.Total().Round(time.Millisecond))
	fmt.Printf("  guest calls:  %d total, %d remoted, %d batched (in %d batches), %d async (%d fences), %d answered locally\n",
		stats.Total, stats.Remoted, stats.Batched, stats.Batches, stats.Async, stats.Fences, stats.Localized)
	fmt.Printf("  round trips:  %d over the real socket\n", stats.Roundtrips())
	//lint:allow simdeterminism wall-time report of the real-socket run
	fmt.Printf("  wall time:    %v\n", time.Since(wallStart).Round(time.Millisecond))
}

func names() []string {
	var out []string
	for _, s := range workloads.All() {
		out = append(out, s.Name)
	}
	return out
}
