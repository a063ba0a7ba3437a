package faults

import (
	"errors"
	"testing"
	"time"

	"dgsf/internal/dataplane"
	"dgsf/internal/gpu"
	"dgsf/internal/gpuserver"
	"dgsf/internal/remoting"
	"dgsf/internal/sim"
	"dgsf/internal/store"
)

func startServer(e *sim.Engine, p *sim.Proc) *gpuserver.GPUServer {
	cfg := gpuserver.DefaultConfig()
	cfg.GPUs = 1
	cfg.ServersPerGPU = 2
	cfg.HeartbeatPeriod = 10 * time.Millisecond
	gs := gpuserver.New(e, cfg)
	gs.Start(p)
	return gs
}

func TestScheduledKillCrashesServerAndHeartbeatNotices(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		gs := startServer(e, p)
		// Start consumes virtual time (prewarm), so schedule relative to now.
		killAt := p.Now() + 50*time.Millisecond
		inj := NewInjector(e, Plan{Events: []Event{
			{At: killAt, Kind: KillAPIServer, Server: 1},
		}}, []*gpuserver.GPUServer{gs})
		inj.Arm(p)

		p.Sleep(40 * time.Millisecond)
		if gs.Servers()[1].Crashed() {
			t.Fatal("server crashed before its scheduled event")
		}
		if got := gs.Capacity(); got != 2 {
			t.Fatalf("capacity before kill = %d, want 2", got)
		}
		p.Sleep(20 * time.Millisecond) // past the event
		if !gs.Servers()[1].Crashed() {
			t.Fatal("scheduled kill did not crash the server")
		}
		if inj.Killed != 1 {
			t.Fatalf("Killed = %d, want 1", inj.Killed)
		}
		// Heartbeats (10ms period, 3 misses) take the corpse out of rotation.
		p.Sleep(100 * time.Millisecond)
		if got := gs.Capacity(); got != 1 {
			t.Fatalf("capacity after heartbeat detection = %d, want 1", got)
		}
	})
}

func TestFailGPUServerStopsGrantingLeases(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		gs := startServer(e, p)
		inj := NewInjector(e, Plan{Events: []Event{
			{At: p.Now() + 30*time.Millisecond, Kind: FailGPUServer, Server: 0},
		}}, []*gpuserver.GPUServer{gs})
		inj.Arm(p)

		p.Sleep(50 * time.Millisecond)
		if gs.Healthy() {
			t.Fatal("failed GPU server still reports healthy")
		}
		if inj.Failed != 1 {
			t.Fatalf("Failed = %d, want 1", inj.Failed)
		}
		if _, err := gs.Acquire(p, "fn", 1<<20); !errors.Is(err, gpuserver.ErrCapacity) {
			t.Fatalf("acquire on failed server = %v, want ErrCapacity", err)
		}
	})
}

func TestWrapConnAppliesPlannedFaults(t *testing.T) {
	e := sim.NewEngine(3)
	e.Run("root", func(p *sim.Proc) {
		l := remoting.NewListener(e)
		p.SpawnDaemon("server", func(p *sim.Proc) {
			for {
				req, ok := l.Incoming.Recv(p)
				if !ok {
					return
				}
				if req.ReplyTo != nil {
					req.ReplyTo.Send(remoting.Response{Payload: []byte("ok")})
				}
			}
		})
		inj := NewInjector(e, Plan{
			DropRate:    0.5,
			DropAfter:   time.Millisecond,
			CorruptRate: 0.25,
		}, nil)
		// Wrap many conns; with these rates some of each fault must land.
		var conns []remoting.AsyncCaller
		for i := 0; i < 40; i++ {
			conns = append(conns, inj.WrapConn(p, remoting.Dial(e, l, remoting.NetProfile{})))
		}
		if inj.Dropped == 0 || inj.Corrupted == 0 {
			t.Fatalf("no faults armed: dropped=%d corrupted=%d", inj.Dropped, inj.Corrupted)
		}
		p.Sleep(10 * time.Millisecond) // past every DropAfter
		var dead, corrupt int
		for _, c := range conns {
			_, err := c.Roundtrip(p, []byte("ping"), 0)
			switch {
			case errors.Is(err, remoting.ErrConnClosed):
				dead++
			case errors.Is(err, remoting.ErrFrameCorrupt):
				corrupt++
			case err != nil:
				t.Fatalf("unexpected fault class: %v", err)
			}
		}
		if dead != inj.Dropped {
			t.Fatalf("dead conns = %d, want %d scheduled drops", dead, inj.Dropped)
		}
		if corrupt == 0 {
			t.Fatal("no corrupted frame surfaced")
		}
	})
}

func TestInjectionDeterministicAcrossRuns(t *testing.T) {
	run := func() [3]int {
		e := sim.NewEngine(7)
		var counts [3]int
		e.Run("root", func(p *sim.Proc) {
			l := remoting.NewListener(e)
			inj := NewInjector(e, Plan{
				DropRate:    0.3,
				DropAfter:   time.Millisecond,
				StallRate:   0.2,
				StallFor:    time.Second,
				CorruptRate: 0.1,
			}, nil)
			for i := 0; i < 64; i++ {
				inj.WrapConn(p, remoting.Dial(e, l, remoting.NetProfile{}))
			}
			counts = [3]int{inj.Dropped, inj.Stalled, inj.Corrupted}
		})
		return counts
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed injected %v then %v", a, b)
	}
	if a == [3]int{} {
		t.Fatal("no faults injected at these rates")
	}
}

// TestPartitionSeversConnsAndBlocksDials exercises the asymmetric partition:
// live guest connections to the cut machine break at onset, dials during the
// window are born broken, and dials after it heal.
func TestPartitionSeversConnsAndBlocksDials(t *testing.T) {
	e := sim.NewEngine(7)
	e.Run("root", func(p *sim.Proc) {
		gs := startServer(e, p)
		l := remoting.NewListener(e)
		p.SpawnDaemon("echo", func(p *sim.Proc) {
			for {
				req, ok := l.Incoming.Recv(p)
				if !ok {
					return
				}
				if req.ReplyTo != nil {
					req.ReplyTo.TrySend(remoting.Response{Payload: []byte("ok")})
				}
			}
		})
		dial := func() remoting.AsyncCaller {
			return remoting.Dial(e, l, remoting.NetProfile{})
		}

		onset := p.Now() + 50*time.Millisecond
		inj := NewInjector(e, Plan{Partitions: []Partition{
			{At: onset, Dur: 100 * time.Millisecond, Servers: []int{0}},
		}}, []*gpuserver.GPUServer{gs})
		inj.Arm(p)

		before := inj.WrapTargetConn(p, gs, dial())
		if _, err := before.Roundtrip(p, []byte("ping"), 0); err != nil {
			t.Fatalf("pre-partition roundtrip: %v", err)
		}
		p.Sleep(60 * time.Millisecond) // into the window
		if inj.Partitioned != 1 {
			t.Fatalf("Partitioned = %d, want 1", inj.Partitioned)
		}
		if _, err := before.Roundtrip(p, []byte("ping"), 0); !errors.Is(err, remoting.ErrConnClosed) {
			t.Fatalf("live conn must break at partition onset, got %v", err)
		}
		during := inj.WrapTargetConn(p, gs, dial())
		if _, err := during.Roundtrip(p, []byte("ping"), 0); !errors.Is(err, remoting.ErrConnClosed) {
			t.Fatalf("dial during the window must be born broken, got %v", err)
		}
		if inj.Severed != 2 {
			t.Fatalf("Severed = %d, want 2 (one cut, one stillborn)", inj.Severed)
		}
		p.Sleep(100 * time.Millisecond) // past the window
		after := inj.WrapTargetConn(p, gs, dial())
		if _, err := after.Roundtrip(p, []byte("ping"), 0); err != nil {
			t.Fatalf("post-partition roundtrip: %v", err)
		}
	})
}

// TestBrownoutSlowsDevicesForTheWindow exercises the slow-GPU brownout: the
// machine's devices run Factor× slower inside the window and recover after.
func TestBrownoutSlowsDevicesForTheWindow(t *testing.T) {
	e := sim.NewEngine(7)
	e.Run("root", func(p *sim.Proc) {
		gs := startServer(e, p)
		onset := p.Now() + 20*time.Millisecond
		inj := NewInjector(e, Plan{Brownouts: []Brownout{
			{At: onset, Dur: 50 * time.Millisecond, Server: 0, Factor: 4},
		}}, []*gpuserver.GPUServer{gs})
		inj.Arm(p)

		dev := gs.Devices()[0]
		if got := dev.Slowdown(); got != 1 {
			t.Fatalf("slowdown before the window = %v, want 1", got)
		}
		p.Sleep(30 * time.Millisecond) // into the window
		if got := dev.Slowdown(); got != 4 {
			t.Fatalf("slowdown inside the window = %v, want 4", got)
		}
		if inj.Browned != 1 {
			t.Fatalf("Browned = %d, want 1", inj.Browned)
		}
		p.Sleep(50 * time.Millisecond) // past the window
		if got := dev.Slowdown(); got != 1 {
			t.Fatalf("slowdown after the window = %v, want 1", got)
		}
	})
}

// TestConflictStormRejectsWritesForTheWindow exercises the store conflict
// storm: writes inside the window fail with ErrConflict (a CAS race the
// writer keeps losing), writes before and after land normally.
func TestConflictStormRejectsWritesForTheWindow(t *testing.T) {
	e := sim.NewEngine(7)
	st := store.New(e, nil)
	e.Run("root", func(p *sim.Proc) {
		onset := p.Now() + 20*time.Millisecond
		inj := NewInjector(e, Plan{ConflictStorms: []ConflictStorm{
			{At: onset, Dur: 50 * time.Millisecond, Rate: 1},
		}}, nil)
		inj.BindStore(st)
		inj.Arm(p)

		// The storm rejects CAS writes (Update/UpdateStatus/Delete) — the ops
		// whose retry loops it exists to exercise; Creates pass untouched.
		obj, err := st.Create(p, &store.Session{ObjectMeta: store.ObjectMeta{Name: "s-0"}})
		if err != nil {
			t.Fatalf("create before the storm: %v", err)
		}
		p.Sleep(30 * time.Millisecond) // into the window
		if _, err := st.Update(p, obj.DeepCopy()); !errors.Is(err, store.ErrConflict) {
			t.Fatalf("update during the storm = %v, want ErrConflict", err)
		}
		if inj.Stormed == 0 {
			t.Fatal("Stormed counter never moved")
		}
		p.Sleep(50 * time.Millisecond) // past the window
		if _, err := st.Update(p, obj.DeepCopy()); err != nil {
			t.Fatalf("update after the storm: %v", err)
		}
	})
}

// TestFabricFaultAbortsPeerTransfer exercises the mid-handoff fabric fault:
// with the hook bound at rate 1, a peer transfer dies partway through with
// the typed (and conn-fault-classified) ErrFabricFault.
func TestFabricFaultAbortsPeerTransfer(t *testing.T) {
	e := sim.NewEngine(7)
	e.Run("root", func(p *sim.Proc) {
		fab := dataplane.NewFabric(dataplane.DefaultConfig(), nil)
		inj := NewInjector(e, Plan{FabricFaultRate: 1}, nil)
		inj.BindFabric(fab)

		mkalloc := func(idx int) *gpu.PhysAlloc {
			dev := gpu.New(e, gpu.V100Config(idx))
			a, err := dev.AllocPhys(1 << 20)
			if err != nil {
				t.Fatalf("AllocPhys: %v", err)
			}
			return a
		}
		src, dst := mkalloc(0), mkalloc(1)

		start := p.Now()
		err := fab.PeerTransfer(p, dst, src)
		if !errors.Is(err, remoting.ErrFabricFault) {
			t.Fatalf("PeerTransfer = %v, want ErrFabricFault", err)
		}
		if !remoting.IsConnFault(err) {
			t.Fatal("fabric faults must classify as recoverable conn faults")
		}
		if inj.FabricFaults != 1 {
			t.Fatalf("FabricFaults = %d, want 1", inj.FabricFaults)
		}
		if p.Now() == start {
			t.Fatal("a mid-flight fault must still burn transfer time")
		}
		if fab.Metrics().Get(dataplane.CtrFabricFaults) != 1 {
			t.Fatalf("fabric fault counter: %s", fab.Metrics().String())
		}
	})
}
