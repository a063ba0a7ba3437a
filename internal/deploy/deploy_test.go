package deploy

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"dgsf/internal/faas"
	"dgsf/internal/faults"
	"dgsf/internal/gpuserver"
	"dgsf/internal/guest"
	"dgsf/internal/metrics"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
	"dgsf/internal/store"
	"dgsf/internal/workloads"
)

// TestSessionByeFlushesPendingBatch: no caller flushes before Bye any more;
// Bye is a synchronous call and a synchronous call ships the pending batch
// first, so a call the body left deferred still reaches the server.
func TestSessionByeFlushesPendingBatch(t *testing.T) {
	sim.NewEngine(1).Run("exp", func(p *sim.Proc) {
		srv := APIServer(p, 1, true)
		hello, st := Session(p, srv, remoting.OpenFaaSNet(), guest.OptAll, "fn", 1<<30, func(api gen.API) error {
			ptr, err := api.Malloc(p, 1<<20)
			if err != nil {
				return err
			}
			return api.Memset(p, ptr, 0, 1<<20) // batched, still pending when body returns
		})
		if hello <= 0 {
			t.Errorf("Hello took %v, want > 0", hello)
		}
		if st.Batched != 1 || st.Batches != 1 {
			t.Errorf("batched/batches = %d/%d, want 1/1: the deferred Memset did not ship", st.Batched, st.Batches)
		}
		if got := srv.Stats().CallsHandled; got < 4 {
			t.Errorf("server handled %d calls, want Hello, Malloc, Memset and Bye", got)
		}
	})
}

// TestNativePaysInitInHello: the native arm initializes CUDA at first use.
func TestNativePaysInitInHello(t *testing.T) {
	sim.NewEngine(1).Run("native", func(p *sim.Proc) {
		hello := Native(p, "fn", 1<<30, func(api gen.API) error { return api.DeviceSynchronize(p) })
		if hello < 2*time.Second {
			t.Errorf("native Hello took %v, want CUDA initialization (seconds) inside it", hello)
		}
	})
}

// TestStreamIsSeededShuffle: n of each spec, in an order that is a function
// of the seed alone.
func TestStreamIsSeededShuffle(t *testing.T) {
	order := func(seed int64) (names []string) {
		sim.NewEngine(seed).Run("mix", func(p *sim.Proc) {
			for _, f := range Stream(p, workloads.Smaller(), 3) {
				names = append(names, f.Name)
			}
		})
		return names
	}
	a := order(1)
	if len(a) != 3*len(workloads.Smaller()) {
		t.Fatalf("stream holds %d invocations, want %d", len(a), 3*len(workloads.Smaller()))
	}
	if !reflect.DeepEqual(a, order(1)) {
		t.Error("same seed, different order")
	}
	if reflect.DeepEqual(a, order(2)) {
		t.Error("seeds 1 and 2 produced the same order")
	}
}

// TestGPUServersAdjustRunsBeforeEachBoot: server i is adjusted, built and
// started before server i+1 is adjusted — a data-plane Plane made inside the
// adjust is made just before its server.
func TestGPUServersAdjustRunsBeforeEachBoot(t *testing.T) {
	sim.NewEngine(1).Run("scale", func(p *sim.Proc) {
		var booted []time.Duration
		servers := GPUServers(p, 2, func(i int, cfg *gpuserver.Config) {
			cfg.GPUs = 1
			booted = append(booted, p.Now())
		})
		if len(servers) != 2 || servers[0].Capacity() != 1 {
			t.Errorf("servers = %d, capacity %d; want 2 servers of one API server", len(servers), servers[0].Capacity())
		}
		if len(booted) != 2 || booted[1] <= booted[0] {
			t.Errorf("adjust calls at %v: the second ran before the first server had pre-warmed", booted)
		}
	})
}

// TestFleetBootOrderAndFlood pins the fleet's boot order — the order
// `-exp fleet` and the chaos harness depend on for their bytes — and that a
// flood through it, with the placement controller killed once, loses nothing.
func TestFleetBootOrderAndFlood(t *testing.T) {
	e := sim.NewEngine(1)
	e.SetTimeLimit(time.Hour)
	reg := metrics.NewRegistry()
	st := store.New(e, reg)
	var spawned []string
	booting := true
	e.SetTrace(func(_ time.Duration, proc, event string) {
		if !booting || event != "spawn" {
			return
		}
		for _, prefix := range []string{"monitor", "agent-", "store-serve", "placement-supervisor", "reclaim", "fleet-session-router"} {
			if strings.HasPrefix(proc, prefix) {
				spawned = append(spawned, proc)
			}
		}
	})
	plan := faults.Plan{ControllerKills: []faults.ControllerKill{{At: 300 * time.Millisecond, AfterWrites: 1}}}
	var fleet *Fleet
	e.Run("fleet", func(p *sim.Proc) {
		fleet = BootFleet(p, st, faas.FleetConfig{Registry: reg}, 2, nil, plan)
		booting = false
		fleet.Flood(p, 12, 25*time.Millisecond)
		sessions, _, err := st.List(p, store.KindSession)
		if err != nil {
			t.Error(err)
			return
		}
		for _, r := range sessions {
			if s := r.(*store.Session); s.Status.Phase != store.PhaseDone {
				t.Errorf("session %s ended in phase %q", s.Meta().Name, s.Status.Phase)
			}
		}
		if len(sessions) != 12 {
			t.Errorf("store holds %d sessions, want 12", len(sessions))
		}
	})
	want := []string{
		"monitor", "agent-gpu-000", "monitor", "agent-gpu-001",
		"store-serve", "placement-supervisor", "reclaim", "fleet-session-router",
	}
	if !reflect.DeepEqual(spawned, want) {
		t.Errorf("boot spawned\n  %v\nwant\n  %v", spawned, want)
	}
	if fleet.CtrlRestarts != 1 {
		t.Errorf("controller restarts = %d, want 1", fleet.CtrlRestarts)
	}
	for _, inv := range fleet.Backend.Invocations() {
		if inv.Err != nil {
			t.Errorf("invocation %d failed: %v", inv.Seq, inv.Err)
		}
	}
}
