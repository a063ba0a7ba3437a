package faas

import (
	"errors"
	"testing"
	"time"

	"dgsf/internal/gpuserver"
	"dgsf/internal/sim"
)

func TestMultiBackendLeastLoadedBalances(t *testing.T) {
	// Two one-GPU servers; least-loaded must spread four functions so that
	// neither server serializes more than two.
	e := sim.NewEngine(1)
	var placements [2]int
	e.Run("root", func(p *sim.Proc) {
		a := testGS(e, p, 1, 1)
		bsrv := testGS(e, p, 1, 1)
		servers := []*gpuserver.GPUServer{a, bsrv}
		backend := NewMultiBackend(e, servers, PickLeastLoaded, fastEnv())
		fn := sleepFn("f", 1<<30, 0, time.Second)
		for i := 0; i < 4; i++ {
			backend.Submit(p, fn)
			p.Sleep(100 * time.Millisecond)
		}
		backend.Drain(p)
		placements[0] = len(a.Placements())
		placements[1] = len(bsrv.Placements())
	})
	if placements[0] != 2 || placements[1] != 2 {
		t.Fatalf("placements = %v, want [2 2]", placements)
	}
}

func TestMultiBackendFixedUsesFirstServer(t *testing.T) {
	e := sim.NewEngine(1)
	var placements [2]int
	e.Run("root", func(p *sim.Proc) {
		a := testGS(e, p, 2, 1)
		bsrv := testGS(e, p, 2, 1)
		backend := NewMultiBackend(e, []*gpuserver.GPUServer{a, bsrv}, PickFixed, fastEnv())
		fn := sleepFn("f", 1<<30, 0, 100*time.Millisecond)
		for i := 0; i < 3; i++ {
			backend.Submit(p, fn)
		}
		backend.Drain(p)
		placements[0] = len(a.Placements())
		placements[1] = len(bsrv.Placements())
	})
	if placements[0] != 3 || placements[1] != 0 {
		t.Fatalf("placements = %v, want [3 0] (fixed policy)", placements)
	}
}

func TestMultiBackendScalesThroughput(t *testing.T) {
	// Doubling the GPU servers should substantially cut the makespan of a
	// saturating stream ("Scaling up GPU servers in DGSF is simple", §IV).
	run := func(nServers int) time.Duration {
		e := sim.NewEngine(5)
		var e2e time.Duration
		e.Run("root", func(p *sim.Proc) {
			var servers []*gpuserver.GPUServer
			for i := 0; i < nServers; i++ {
				servers = append(servers, testGS(e, p, 1, 1))
			}
			backend := NewMultiBackend(e, servers, PickLeastLoaded, fastEnv())
			fn := sleepFn("f", 1<<30, 0, time.Second)
			for i := 0; i < 8; i++ {
				backend.Submit(p, fn)
			}
			backend.Drain(p)
			e2e = backend.ProviderEndToEnd()
		})
		return e2e
	}
	one, two := run(1), run(2)
	if two >= one*3/4 {
		t.Fatalf("two servers (%v) did not clearly beat one (%v)", two, one)
	}
}

func TestExecHistoryFeedsHints(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		gs := testGS(e, p, 1, 1)
		b := NewBackend(e, gs, fastEnv())
		fn := sleepFn("learned", 1<<30, 0, time.Second)
		b.Submit(p, fn)
		b.Drain(p)
		hint := b.history["learned"]
		if hint < 900*time.Millisecond || hint > 1500*time.Millisecond {
			t.Fatalf("learned exec hint = %v, want ~1s", hint)
		}
		// A second run refines rather than replaces.
		b.Submit(p, fn)
		b.Drain(p)
		if h2 := b.history["learned"]; h2 < 900*time.Millisecond || h2 > 1500*time.Millisecond {
			t.Fatalf("refined hint = %v", h2)
		}
	})
}

func TestQueueAndE2ESeries(t *testing.T) {
	e := sim.NewEngine(1)
	var queueN int
	var meanE2E time.Duration
	e.Run("root", func(p *sim.Proc) {
		gs := testGS(e, p, 1, 1)
		b := NewBackend(e, gs, fastEnv())
		fn := sleepFn("f", 1<<30, 0, time.Second)
		for i := 0; i < 3; i++ {
			b.Submit(p, fn)
		}
		b.Drain(p)
		queueN = len(b.Invocations())
		for _, inv := range b.Invocations() {
			meanE2E += inv.E2E() / 3
		}
	})
	if queueN != 3 {
		t.Fatalf("queue series has %d entries, want 3", queueN)
	}
	if meanE2E < time.Second {
		t.Fatalf("mean E2E = %v", meanE2E)
	}
}

func TestNoCapacityFailsInvocationGracefully(t *testing.T) {
	e := sim.NewEngine(1)
	var inv *Invocation
	e.Run("root", func(p *sim.Proc) {
		gs := testGS(e, p, 1, 1)
		b := NewBackend(e, gs, fastEnv())
		inv = b.Submit(p, sleepFn("huge", 32<<30, 100e6, time.Second))
		b.Drain(p)
	})
	if inv.Err == nil {
		t.Fatal("impossible invocation reported success")
	}
	if !errors.Is(inv.Err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", inv.Err)
	}
	if inv.Done < inv.DownloadDone || inv.DownloadDone == 0 {
		t.Fatalf("failed invocation timestamps inconsistent: %+v", inv)
	}
}
