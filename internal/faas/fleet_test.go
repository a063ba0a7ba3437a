package faas

import (
	"math"
	"runtime"
	"testing"
	"time"

	"dgsf/internal/controller"
	"dgsf/internal/cuda"
	"dgsf/internal/gpuserver"
	"dgsf/internal/guest"
	"dgsf/internal/metrics"
	"dgsf/internal/modelcache"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
	"dgsf/internal/store"
)

// fleetRig is a small fleet deployment: a store, N GPU servers with agents,
// the placement + reclaim controllers, and the fleet backend.
type fleetRig struct {
	st   *store.Store
	b    *FleetBackend
	reg  *metrics.Registry
	ctrl *controller.Controller
}

// startFleet brings up nServers machines (1 GPU, 1 API server each) with
// agents, the placement controller (over the given store handle, so a fuse
// can interpose), and the fleet backend. The controller is spawned; the rig
// is returned once everything runs.
func startFleet(t *testing.T, e *sim.Engine, p *sim.Proc, st *store.Store, ctrlHandle store.Interface, nServers int) *fleetRig {
	t.Helper()
	reg := metrics.NewRegistry()
	b := NewFleet(e, st, FleetConfig{Env: fastEnv(), Registry: reg})
	for i := 0; i < nServers; i++ {
		gs := testGS(e, p, 1, 1)
		name := nameFor(i)
		b.AddServer(name, gs)
		a := gpuserver.NewAgent(gs, st, name, gpuserver.AgentConfig{SyncPeriod: 10 * time.Millisecond})
		p.SpawnDaemon("agent-"+name, a.Run)
	}
	// Let every agent register and publish a first status before placement
	// starts, so the controller sees a populated fleet.
	p.Sleep(20 * time.Millisecond)
	ctrl := NewPlacementController(ctrlHandle, PlacementConfig{Resync: 25 * time.Millisecond, Registry: reg})
	if err := b.Run(p); err != nil {
		t.Fatalf("backend Run: %v", err)
	}
	return &fleetRig{st: st, b: b, reg: reg, ctrl: ctrl}
}

func nameFor(i int) string {
	return "gpu-" + string(rune('a'+i))
}

// TestFleetPlacesAndCompletes checks the basic watch-driven flow: sessions
// go Pending -> Placed -> Done through the store, and load spreads across
// the machines.
func TestFleetPlacesAndCompletes(t *testing.T) {
	e := sim.NewEngine(1)
	e.SetTimeLimit(10 * time.Minute)
	st := store.New(e, nil)
	var invs []*Invocation
	var rig *fleetRig
	e.Run("root", func(p *sim.Proc) {
		rig = startFleet(t, e, p, st, st, 3)
		p.Spawn("placement", rig.ctrl.Run)
		for i := 0; i < 9; i++ {
			invs = append(invs, rig.b.Submit(p, sleepFn("f", 1<<30, 10e6, 100*time.Millisecond)))
		}
		rig.b.Drain(p)
		rig.ctrl.Stop()

		// Every session ends Done in the store, and each machine served some.
		rs, _, err := st.List(p, store.KindSession)
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		perServer := map[string]int{}
		for _, r := range rs {
			s := r.(*store.Session)
			if s.Status.Phase != store.PhaseDone {
				t.Errorf("session %s phase %q, want Done", s.Meta().Name, s.Status.Phase)
			}
			perServer[s.Status.Server]++
		}
		if len(perServer) != 3 {
			t.Errorf("load did not spread: %v", perServer)
		}
	})
	for _, inv := range invs {
		if inv.Err != nil {
			t.Errorf("invocation %d failed: %v", inv.Seq, inv.Err)
		}
	}
	if got := rig.reg.Get("fleet_sessions_done"); got != 9 {
		t.Errorf("fleet_sessions_done = %d, want 9", got)
	}
}

// TestFleetRoutesAroundDeadServer checks failure handling end to end: a
// machine dies mid-run; its agent publishes unhealthy, the executor's failed
// attempt returns the session to Pending, and the placement controller
// rebinds it to a live machine. Every invocation completes.
func TestFleetRoutesAroundDeadServer(t *testing.T) {
	e := sim.NewEngine(2)
	e.SetTimeLimit(10 * time.Minute)
	st := store.New(e, nil)
	var invs []*Invocation
	e.Run("root", func(p *sim.Proc) {
		rig := startFleet(t, e, p, st, st, 2)
		p.Spawn("placement", rig.ctrl.Run)
		// Kill machine "gpu-a" while work is in flight.
		victim := rig.b.servers[nameFor(0)]
		p.SpawnDaemon("killer", func(p *sim.Proc) {
			p.Sleep(150 * time.Millisecond)
			victim.Fail()
		})
		for i := 0; i < 6; i++ {
			invs = append(invs, rig.b.Submit(p, sleepFn("f", 1<<30, 10e6, 200*time.Millisecond)))
			p.Sleep(50 * time.Millisecond)
		}
		rig.b.Drain(p)
		rig.ctrl.Stop()

		rs, _, err := st.List(p, store.KindSession)
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		for _, r := range rs {
			s := r.(*store.Session)
			if s.Status.Phase != store.PhaseDone {
				t.Errorf("session %s phase %q (server %q, attempts %d, reason %q)",
					s.Meta().Name, s.Status.Phase, s.Status.Server, s.Status.Attempts, s.Status.Reason)
			}
		}
	})
	for _, inv := range invs {
		if inv.Err != nil {
			t.Errorf("invocation %d failed: %v", inv.Seq, inv.Err)
		}
	}
}

// TestFleetControllerCrashConvergence is the fault-plan test: the placement
// controller is killed at a session bind (a store fuse blows mid-reconcile), a
// replacement takes over — its cache rebuilt from its own initial list, the
// dead replica's dying with it — and every session still completes — zero
// lost — across seeds 1, 2, 3, 7.
func TestFleetControllerCrashConvergence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7} {
		seed := seed
		t.Run(string(rune('0'+seed)), func(t *testing.T) {
			e := sim.NewEngine(seed)
			e.SetTimeLimit(10 * time.Minute)
			st := store.New(e, nil)
			reg := metrics.NewRegistry()
			var invs []*Invocation
			var restarts int
			e.Run("root", func(p *sim.Proc) {
				b := NewFleet(e, st, FleetConfig{Env: fastEnv(), Registry: reg})
				for i := 0; i < 2; i++ {
					gs := testGS(e, p, 1, 1)
					b.AddServer(nameFor(i), gs)
					a := gpuserver.NewAgent(gs, st, nameFor(i), gpuserver.AgentConfig{SyncPeriod: 10 * time.Millisecond})
					p.SpawnDaemon("agent-"+nameFor(i), a.Run)
				}
				p.Sleep(20 * time.Millisecond)
				if err := b.Run(p); err != nil {
					t.Fatalf("backend Run: %v", err)
				}

				// First controller replica runs through a fuse armed to blow
				// after 3 writes: the fourth session bind fails mid-reconcile.
				fuse := store.NewFuse(st)
				replica := 0
				var active *controller.Controller
				p.Spawn("placement-supervisor", func(p *sim.Proc) {
					restarts = RunSupervised(p, 5*time.Millisecond, 3, func() *controller.Controller {
						replica++
						handle := store.Interface(st)
						if replica == 1 {
							handle = fuse
						}
						active = NewPlacementController(handle, PlacementConfig{Resync: 25 * time.Millisecond, Registry: reg})
						return active
					})
				})
				p.Sleep(time.Millisecond)
				fuse.Arm(3)

				for i := 0; i < 8; i++ {
					invs = append(invs, b.Submit(p, sleepFn("f", 1<<30, 10e6, 100*time.Millisecond)))
				}
				b.Drain(p)
				if active != nil {
					active.Stop()
				}

				// Zero lost sessions: every session object is Done.
				rs, _, err := st.List(p, store.KindSession)
				if err != nil {
					t.Fatalf("List: %v", err)
				}
				if len(rs) != 8 {
					t.Fatalf("seed %d: %d sessions in store, want 8", seed, len(rs))
				}
				for _, r := range rs {
					s := r.(*store.Session)
					if s.Status.Phase != store.PhaseDone {
						t.Errorf("seed %d: session %s phase %q (attempts %d, reason %q)",
							seed, s.Meta().Name, s.Status.Phase, s.Status.Attempts, s.Status.Reason)
					}
				}
			})
			if !func() bool {
				for _, inv := range invs {
					if inv.Err != nil {
						return false
					}
				}
				return true
			}() {
				t.Errorf("seed %d: some invocations failed", seed)
			}
			if restarts < 1 {
				t.Errorf("seed %d: supervisor never restarted the controller (fuse never blew?)", seed)
			}
		})
	}
}

// TestFleetReclaimEnforcesStageBudget checks the occupancy/reclaim loop: the
// agent mirrors host-tier entries as StagedModel objects, the reclaim
// controller deletes the oldest ones once the server exceeds its stage
// budget, and the agent evicts them from the real cache.
func TestFleetReclaimEnforcesStageBudget(t *testing.T) {
	e := sim.NewEngine(3)
	e.SetTimeLimit(10 * time.Minute)
	st := store.New(e, nil)
	e.Run("root", func(p *sim.Proc) {
		cfg := gpuserver.DefaultConfig()
		cfg.GPUs, cfg.ServersPerGPU = 1, 1
		cfg.PoolHandles = false
		cfg.Cache = modelcache.Config{Enable: true, HostBudget: 1 << 30, DeviceBudget: -1}
		gs := gpuserver.New(e, cfg)
		gs.Start(p)
		// Stage budget far below the LRU's own budget, so reclaim is the
		// binding constraint.
		a := gpuserver.NewAgent(gs, st, "gpu-a", gpuserver.AgentConfig{
			SyncPeriod:  10 * time.Millisecond,
			StageBudget: 300e6,
		})
		p.SpawnDaemon("agent", a.Run)
		rc := NewReclaimController(st, ReclaimConfig{Resync: 20 * time.Millisecond})
		p.Spawn("reclaim", rc.Run)

		// Fill the host tier well past the stage budget.
		host := gs.Cache().Host()
		for i := 0; i < 5; i++ {
			host.Put(modelcache.Key{Name: "m" + string(rune('0'+i)), FP: uint64(i)}, 100e6)
		}
		// Let the loop run: publish -> reclaim -> evict -> republish.
		p.Sleep(500 * time.Millisecond)
		rc.Stop()
		a.Stop()

		if used := host.Used(); used > 300e6 {
			t.Errorf("host tier still holds %d bytes, budget 300e6", used)
		}
		rs, _, err := st.List(p, store.KindStagedModel)
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		var sum int64
		for _, r := range rs {
			sum += r.(*store.StagedModel).Spec.Bytes
		}
		if sum > 300e6 {
			t.Errorf("store still records %d staged bytes, budget 300e6", sum)
		}
		// The newest entries survive (oldest-first eviction).
		if !host.Peek(modelcache.Key{Name: "m4", FP: 4}) {
			t.Error("newest entry m4 was evicted; reclaim should take oldest first")
		}
	})
}

// countingStore counts the calls a component makes on its store handle:
// the reads by kind of cost (Gets, and objects returned by Lists) and every
// call of any sort.
type countingStore struct {
	store.Interface
	gets, listed, calls int
}

func (s *countingStore) Get(p *sim.Proc, kind store.Kind, name string) (store.Resource, error) {
	s.gets++
	s.calls++
	return s.Interface.Get(p, kind, name)
}

func (s *countingStore) List(p *sim.Proc, kind store.Kind) ([]store.Resource, uint64, error) {
	rs, rv, err := s.Interface.List(p, kind)
	s.listed += len(rs)
	s.calls++
	return rs, rv, err
}

func (s *countingStore) UpdateStatus(p *sim.Proc, r store.Resource) (store.Resource, error) {
	s.calls++
	return s.Interface.UpdateStatus(p, r)
}

func (s *countingStore) Watch(p *sim.Proc, kind store.Kind, fromRV uint64) (*store.Watch, error) {
	s.calls++
	return s.Interface.Watch(p, kind, fromRV)
}

// TestControlPlaneReadsFlatInN runs the fleet rig at N and at 4N invocations
// with the placement controller behind a counting handle. What the
// controller reads from the store per invocation, once it is up, must not
// depend on how many sessions the store has accumulated; and with nothing
// Pending, ten resync periods — each redelivering every session ever made —
// must not touch the store at all.
func TestControlPlaneReadsFlatInN(t *testing.T) {
	readsPerInvocation := func(n int) float64 {
		e := sim.NewEngine(5)
		e.SetTimeLimit(10 * time.Minute)
		st := store.New(e, nil)
		handle := &countingStore{Interface: st}
		var reads float64
		e.Run("root", func(p *sim.Proc) {
			rig := startFleet(t, e, p, st, handle, 3)
			p.Spawn("placement", rig.ctrl.Run)
			p.Sleep(time.Millisecond) // the controller's start-up lists
			gets, listed := handle.gets, handle.listed
			for i := 0; i < n; i++ {
				rig.b.Submit(p, sleepFn("f", 1<<30, 10e6, 100*time.Millisecond))
				p.Sleep(20 * time.Millisecond)
			}
			rig.b.Drain(p)
			reads = float64(handle.gets-gets+handle.listed-listed) / float64(n)

			idle := handle.calls
			resyncs := rig.reg.Get("ctrl_placement_resyncs_total")
			p.Sleep(10 * 25 * time.Millisecond)
			if got := rig.reg.Get("ctrl_placement_resyncs_total") - resyncs; got < 10 {
				t.Errorf("n=%d: %d resyncs in ten periods", n, got)
			}
			if handle.calls != idle {
				t.Errorf("n=%d: %d store calls across ten idle resync periods, want 0", n, handle.calls-idle)
			}
			rig.ctrl.Stop()
			if done := rig.reg.Get("fleet_sessions_done"); done != int64(n) {
				t.Errorf("n=%d: %d sessions done", n, done)
			}
		})
		return reads
	}
	small, large := readsPerInvocation(12), readsPerInvocation(48)
	t.Logf("placement store reads per invocation: %.2f at N=12, %.2f at N=48", small, large)
	if diff, max := math.Abs(large-small), math.Max(large, small); diff > 0.1*max {
		t.Errorf("store reads per invocation are not flat in N: %.2f at N=12, %.2f at N=48", small, large)
	}
}

// fleetAllocsCeiling is TestFleetAllocsPerInvocation's bound: 38.2 when it
// was set (65.4 while quiet agent ticks copied their status, pulls made
// fresh event slices and each API server connection its own reply queue),
// plus less than the one allocation per invocation the smallest of those
// regressions adds back.
const fleetAllocsCeiling = 39

// TestFleetAllocsPerInvocation is a ceiling on the host allocations of one
// fleet invocation once the fleet is warm, with the placement controller
// behind a served store as in production: the store pulls, the agents' sync
// ticks, the guest library and the connections to the API servers and the
// store all run. Its count repeats at a fixed seed; a layer that starts to
// allocate per invocation again — a status copy per quiet tick, an event
// slice per pull, a reply queue per connection — lifts it past the ceiling.
func TestFleetAllocsPerInvocation(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("race detector drops sync.Pool items; alloc counts are meaningless")
	}
	const warm, n = 40, 200
	e := sim.NewEngine(3)
	e.SetTimeLimit(time.Hour)
	st := store.New(e, nil)
	var perInvocation float64
	e.Run("root", func(p *sim.Proc) {
		l := remoting.NewListener(e)
		p.SpawnDaemon("store-serve", func(p *sim.Proc) { store.Serve(p, st, l) })
		remote := store.NewRemote(e, remoting.Dial(e, l, remoting.NetProfile{RTT: 100 * time.Microsecond}))
		rig := startFleet(t, e, p, st, remote, 4)
		p.Spawn("placement", rig.ctrl.Run)
		fn := sleepFn("f", 1<<30, 10e6, 50*time.Millisecond)
		submit := func(k int) {
			for i := 0; i < k; i++ {
				rig.b.Submit(p, fn)
				p.Sleep(25 * time.Millisecond)
			}
			rig.b.Drain(p)
		}
		submit(warm)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		submit(n)
		runtime.ReadMemStats(&after)
		perInvocation = float64(after.Mallocs-before.Mallocs) / n
		rig.ctrl.Stop()
		if done := rig.reg.Get("fleet_sessions_done"); done != warm+n {
			t.Errorf("%d sessions done, want %d", done, warm+n)
		}
	})
	t.Logf("%.2f allocations per fleet invocation", perInvocation)
	if perInvocation > fleetAllocsCeiling {
		t.Errorf("%.2f allocations per fleet invocation, ceiling %v", perInvocation, fleetAllocsCeiling)
	}
}

// mixBytesCeiling is TestMixBytesPerInvocation's bound, in host bytes per
// invocation: ≈ 14 KB when it was set, ≈ 457 KB while each library regrew
// its batch's ops and encoder from nothing.
const mixBytesCeiling = 32 << 10

// batchedFn returns a function shaped like the paper's inference loops:
// rounds of launches that the batching tier defers, each round ended by a
// synchronizing call that flushes them as one batch.
func batchedFn(name string, rounds, launches int) *Function {
	return &Function{
		Name:          name,
		GPUMem:        1 << 30,
		DownloadBytes: 10e6,
		Run: func(p *sim.Proc, api gen.API) error {
			fns, err := api.RegisterKernels(p, []string{"layer"})
			if err != nil {
				return err
			}
			buf, err := api.Malloc(p, 1<<20)
			if err != nil {
				return err
			}
			lp := cuda.LaunchParams{Fn: fns[0], Grid: [3]int{64, 1, 1}, Block: [3]int{256, 1, 1}, Duration: 20 * time.Microsecond, Mutates: []cuda.DevPtr{buf}}
			for r := 0; r < rounds; r++ {
				for i := 0; i < launches; i++ {
					if err := api.LaunchKernel(p, lp); err != nil {
						return err
					}
				}
				if err := api.DeviceSynchronize(p); err != nil {
					return err
				}
			}
			return api.Free(p, buf)
		},
	}
}

// TestMixBytesPerInvocation is a ceiling on the host bytes one invocation
// allocates in a warm Table III-style mix: a faas.Backend on shared GPUs at
// OptAll, whose functions batch hundreds of launches per round. A library
// that regrows its batch storage from nothing — the ops slice, the encoder
// of a batch past the wire pool's largest class — lifts it past the ceiling.
func TestMixBytesPerInvocation(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("race detector drops sync.Pool items; alloc counts are meaningless")
	}
	const warm, n = 8, 24
	fns := []*Function{batchedFn("a", 4, 512), batchedFn("b", 8, 300), batchedFn("c", 2, 800)}
	var perInvocation float64
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		env := fastEnv()
		env.GuestOpt = guest.OptAll
		b := NewBackend(e, testGS(e, p, 2, 2), env)
		submit := func(k int) {
			for i := 0; i < k; i++ {
				b.Submit(p, fns[i%len(fns)])
				p.Sleep(20 * time.Millisecond)
			}
			b.Drain(p)
		}
		submit(warm)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		submit(n)
		runtime.ReadMemStats(&after)
		perInvocation = float64(after.TotalAlloc-before.TotalAlloc) / n
		for _, inv := range b.Invocations() {
			if inv.Err != nil {
				t.Errorf("invocation %d: %v", inv.Seq, inv.Err)
			}
		}
	})
	t.Logf("%.0f host bytes per invocation", perInvocation)
	if perInvocation > mixBytesCeiling {
		t.Errorf("%.0f host bytes per invocation, ceiling %d", perInvocation, mixBytesCeiling)
	}
}

// TestServerLoadTracksSessions checks the count placement decides by: a
// session weighs on its server from bind to terminal phase, and a deleted
// session stops weighing whatever phase it was in.
func TestServerLoadTracksSessions(t *testing.T) {
	sess := func(phase, server string) *store.Session {
		s := &store.Session{}
		s.Status.Phase, s.Status.Server = phase, server
		return s
	}
	load := make(serverLoad)
	pending := sess(store.PhasePending, "")
	placed := sess(store.PhasePlaced, "a")
	running := sess(store.PhaseRunning, "a")
	done := sess(store.PhaseDone, "a")
	other := sess(store.PhasePlaced, "a")
	bounced := sess(store.PhasePending, "")
	steps := []struct {
		old, cur store.Resource
		want     int
	}{
		{nil, pending, 0},
		{pending, placed, 1},
		{placed, running, 1},
		{nil, other, 2},
		{running, done, 1},
		{other, nil, 0}, // Deleted while bound
		{nil, placed, 1},
		{placed, bounced, 0}, // executor handed it back
		{nil, &store.GPUServer{}, 0},
	}
	for i, s := range steps {
		load.track(s.old, s.cur)
		if load["a"] != s.want {
			t.Fatalf("step %d: load = %d, want %d", i, load["a"], s.want)
		}
	}
}
