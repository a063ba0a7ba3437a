// Package faults is a deterministic fault injection framework for the DGSF
// control plane. A Plan describes scheduled process failures (API server
// crashes, whole-GPU-server failures) and probabilistic per-connection
// faults (breaks, stalls, frame corruption); an Injector applies the plan to
// a running deployment using only simulated time and the per-proc
// deterministic RNG, so every run with the same seed injects the same faults
// at the same instants.
//
// The injector exercises every failure-handling layer: heartbeats detect
// crashed API servers, guests detect broken or stalled connections through
// typed transport errors and per-call deadlines, the recovery path replays
// sessions, and the GPU server's degraded-mode scheduling routes around dead
// capacity.
package faults

import (
	"fmt"
	"time"

	"dgsf/internal/dataplane"
	"dgsf/internal/gpuserver"
	"dgsf/internal/remoting"
	"dgsf/internal/sim"
	"dgsf/internal/store"
)

// Kind enumerates injectable fault kinds.
type Kind int

// Fault kinds.
const (
	// KillAPIServer crashes one hosted API server process: its inbox closes
	// mid-stream and its session state is scavenged, exactly as if the
	// process died. Server selects which (flattened across GPU servers).
	KillAPIServer Kind = iota + 1
	// FailGPUServer fails a whole GPU server: every hosted API server
	// crashes and the server stops granting leases. Server selects the GPU
	// server index.
	FailGPUServer
)

// Event is one scheduled fault.
type Event struct {
	At     time.Duration
	Kind   Kind
	Server int
}

// Plan configures an injection campaign. Scheduled Events model correlated
// control-plane failures; the rate fields model per-connection data-path
// faults, decided at dial time from the dialing proc's RNG.
type Plan struct {
	Events []Event

	// DropRate is the probability a dialed connection is severed DropAfter
	// after dialing.
	DropRate  float64
	DropAfter time.Duration

	// StallRate is the probability a dialed connection's first send — its
	// first call — is delayed by StallFor: long enough, under a per-call
	// deadline, to look like a dead server.
	StallRate float64
	StallFor  time.Duration

	// CorruptRate is the probability a dialed connection corrupts the
	// framing of its first outbound message, its first call.
	CorruptRate float64

	// ControllerKills schedules fleet-controller crashes: at each At, the
	// next store fuse bound via BindControllerFuse is armed so the
	// controller's store handle dies AfterWrites writes later — killing the
	// reconciler at a write (for the placement controller, a bind). The
	// controller's
	// supervisor is expected to restart a replacement that converges.
	ControllerKills []ControllerKill

	// Partitions schedules asymmetric network partitions between machine
	// groups: guest traffic to the listed GPU servers is cut for a window —
	// live connections break at onset, new dials are born broken — while
	// the servers' own store-agent traffic stays up, so the control plane
	// keeps advertising the machines as healthy. That asymmetry is the hard
	// case: routing must survive placements onto machines it cannot reach.
	Partitions []Partition

	// Brownouts schedules slow-GPU windows: every device on the server
	// executes kernels and copies Factor× slower for the duration —
	// thermal throttling or a noisy co-tenant, a machine that is slow but
	// not dead and never stops heartbeating.
	Brownouts []Brownout

	// ConflictStorms schedules windows during which store writes spuriously
	// fail with ErrConflict at the given rate, as if a competing writer kept
	// winning every CAS race. Requires BindStore.
	ConflictStorms []ConflictStorm

	// FabricFaultRate is the probability that any one data-plane fabric
	// transfer dies mid-flight with remoting.ErrFabricFault, drawn per
	// transfer from the transferring proc's RNG. Requires BindFabric.
	FabricFaultRate float64
}

// Partition is one scheduled asymmetric network partition.
type Partition struct {
	At      time.Duration
	Dur     time.Duration
	Servers []int // GPU server indices cut off from guests
}

// Brownout is one scheduled slow-GPU window.
type Brownout struct {
	At     time.Duration
	Dur    time.Duration
	Server int     // GPU server index whose devices slow down
	Factor float64 // slowdown multiplier (≥ 1)
}

// ConflictStorm is one scheduled store write-conflict window.
type ConflictStorm struct {
	At   time.Duration
	Dur  time.Duration
	Rate float64 // probability each write in the window is rejected
}

// ControllerKill schedules one fleet-controller crash.
type ControllerKill struct {
	At time.Duration
	// AfterWrites is the write budget the fuse gets when armed: 0 blows on
	// the very next write; N lets exactly N writes land first.
	AfterWrites int
}

// Injector applies a Plan to a set of GPU servers.
type Injector struct {
	e       *sim.Engine
	plan    Plan
	servers []*gpuserver.GPUServer
	fuses   []*store.Fuse

	serverIdx   map[*gpuserver.GPUServer]int
	partitioned []int                  // active partition count per server index
	conns       [][]remoting.Faultable // live guest conns per server index
	st          *store.Store

	// Injection counters, for experiment reporting.
	Killed       int // API server crashes injected
	Failed       int // GPU server failures injected
	Dropped      int // connections scheduled to break
	Stalled      int // connections stalled
	Corrupted    int // connections set to corrupt a frame
	CtrlKilled   int // fleet-controller crashes armed
	Partitioned  int // partition windows applied
	Severed      int // connections cut by partitions
	Browned      int // brownout windows applied
	Stormed      int // store writes rejected by conflict storms
	FabricFaults int // fabric transfers killed mid-flight
}

// BindControllerFuse registers a controller replica's store fuse as a kill
// target. Scheduled ControllerKills consume fuses in binding order; a kill
// with no fuse left to arm is skipped (the supervisor stopped restarting).
func (in *Injector) BindControllerFuse(f *store.Fuse) {
	in.fuses = append(in.fuses, f)
}

// NewInjector returns an injector over the deployment's GPU servers.
func NewInjector(e *sim.Engine, plan Plan, servers []*gpuserver.GPUServer) *Injector {
	in := &Injector{
		e:           e,
		plan:        plan,
		servers:     servers,
		serverIdx:   make(map[*gpuserver.GPUServer]int, len(servers)),
		partitioned: make([]int, len(servers)),
		conns:       make([][]remoting.Faultable, len(servers)),
	}
	for i, gs := range servers {
		in.serverIdx[gs] = i
	}
	return in
}

// BindStore attaches the store the plan's conflict storms reject writes on.
func (in *Injector) BindStore(st *store.Store) { in.st = st }

// BindFabric installs the mid-handoff fabric fault hook on the data plane.
// Each transfer draws from the transferring proc's RNG; a hit aborts the
// transfer with remoting.ErrFabricFault partway through.
func (in *Injector) BindFabric(fab *dataplane.Fabric) {
	rate := in.plan.FabricFaultRate
	if rate <= 0 {
		return
	}
	fab.SetFaultHook(func(p *sim.Proc, size int64) error {
		if p.Rand().Float64() < rate {
			in.FabricFaults++
			return fmt.Errorf("%w: injected mid-handoff fault (%d bytes)", remoting.ErrFabricFault, size)
		}
		return nil
	})
}

// Arm schedules the plan's faults as engine callbacks, each at its virtual
// instant: they do not keep the simulation alive, so faults still
// outstanding at the end of a run never fire.
func (in *Injector) Arm(p *sim.Proc) {
	events := in.plan.Events
	in.inOrder(len(events), func(i int) time.Duration { return events[i].At }, func(i int) bool {
		in.apply(events[i])
		return true
	})
	kills := in.plan.ControllerKills
	in.inOrder(len(kills), func(i int) time.Duration { return kills[i].At }, func(i int) bool {
		if i >= len(in.fuses) {
			return false // no replica left to kill
		}
		in.fuses[i].Arm(kills[i].AfterWrites)
		in.CtrlKilled++
		return true
	})
	for _, part := range in.plan.Partitions {
		in.window(part.At, part.Dur, func() {
			in.Partitioned++
			for _, s := range part.Servers {
				if s < 0 || s >= len(in.partitioned) {
					continue
				}
				in.partitioned[s]++
				// Sever live guest connections to the machine; its agent
				// link to the store is in another machine group and stays.
				for _, f := range in.conns[s] {
					f.Break()
					in.Severed++
				}
				in.conns[s] = nil
			}
		}, func() {
			for _, s := range part.Servers {
				if s >= 0 && s < len(in.partitioned) {
					in.partitioned[s]--
				}
			}
		})
	}
	for _, bo := range in.plan.Brownouts {
		if bo.Server < 0 || bo.Server >= len(in.servers) || bo.Factor <= 1 {
			continue
		}
		devs := in.servers[bo.Server].Devices()
		in.window(bo.At, bo.Dur, func() {
			for _, dev := range devs {
				dev.SetSlowdown(bo.Factor)
			}
			in.Browned++
		}, func() {
			for _, dev := range devs {
				dev.SetSlowdown(1)
			}
		})
	}
	for _, storm := range in.plan.ConflictStorms {
		if in.st == nil || storm.Rate <= 0 {
			continue
		}
		in.window(storm.At, storm.Dur, func() {
			in.st.SetWriteFault(func(p *sim.Proc) error {
				if p.Rand().Float64() < storm.Rate {
					in.Stormed++
					return fmt.Errorf("%w: injected conflict storm", store.ErrConflict)
				}
				return nil
			})
		}, func() { in.st.SetWriteFault(nil) })
	}
}

// inOrder runs fire(0), ..., fire(n-1) in turn, each at its instant at(i) or,
// if that has passed, right after the one before, until fire reports false.
func (in *Injector) inOrder(n int, at func(i int) time.Duration, fire func(i int) bool) {
	i := 0
	var next func()
	next = func() {
		for ; i < n; i++ {
			if t := at(i); t > in.e.Now() {
				in.e.At(t, next)
				return
			}
			if !fire(i) {
				return
			}
		}
	}
	if n > 0 {
		in.e.At(at(0), next)
	}
}

// window starts a fault at instant at and ends it dur later.
func (in *Injector) window(at, dur time.Duration, start, end func()) {
	in.e.At(at, func() {
		start()
		in.e.At(in.e.Now()+dur, end)
	})
}

// apply fires one scheduled event.
func (in *Injector) apply(ev Event) {
	switch ev.Kind {
	case KillAPIServer:
		// Crash the process directly; detection is the heartbeat's job.
		idx := 0
		for _, gs := range in.servers {
			for _, srv := range gs.Servers() {
				if idx == ev.Server {
					srv.Crash()
					in.Killed++
					return
				}
				idx++
			}
		}
	case FailGPUServer:
		if ev.Server >= 0 && ev.Server < len(in.servers) {
			in.servers[ev.Server].Fail()
			in.Failed++
		}
	}
}

// WrapConn decides, deterministically from the dialing proc's RNG, which
// per-connection faults this connection suffers. It matches the faas
// backend's DialHook signature; connections whose transport does not expose
// fault hooks pass through untouched.
func (in *Injector) WrapConn(p *sim.Proc, conn remoting.AsyncCaller) remoting.AsyncCaller {
	f, ok := conn.(remoting.Faultable)
	if !ok {
		return conn
	}
	rng := p.Rand()
	if in.plan.CorruptRate > 0 && rng.Float64() < in.plan.CorruptRate {
		f.CorruptNext()
		in.Corrupted++
	}
	if in.plan.StallRate > 0 && rng.Float64() < in.plan.StallRate {
		f.StallFor(in.plan.StallFor)
		in.Stalled++
	}
	if in.plan.DropRate > 0 && rng.Float64() < in.plan.DropRate {
		in.Dropped++
		in.e.At(p.Now()+in.plan.DropAfter, f.Break)
	}
	return conn
}

// WrapTargetConn applies target-aware faults: a dial into a currently
// partitioned GPU server is born broken, and every live connection is
// tracked so a later partition onset can sever it. It matches the faas
// backends' DialServerHook signature and composes with WrapConn (which
// handles the target-independent per-connection faults).
func (in *Injector) WrapTargetConn(p *sim.Proc, gs *gpuserver.GPUServer, conn remoting.AsyncCaller) remoting.AsyncCaller {
	f, ok := conn.(remoting.Faultable)
	if !ok {
		return conn
	}
	idx, ok := in.serverIdx[gs]
	if !ok {
		return conn
	}
	if in.partitioned[idx] > 0 {
		f.Break()
		in.Severed++
		return conn
	}
	in.conns[idx] = append(in.conns[idx], f)
	return conn
}
