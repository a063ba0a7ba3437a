package gpuserver

import (
	"fmt"
	"testing"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/gpu"
	"dgsf/internal/guest"
	"dgsf/internal/remoting"
	"dgsf/internal/sim"
)

// fastConfig strips time-dominant costs so scheduling tests are exact.
func fastConfig(gpus, perGPU int, pol Policy) Config {
	cfg := DefaultConfig()
	cfg.GPUs = gpus
	cfg.ServersPerGPU = perGPU
	cfg.Policy = pol
	cfg.CUDACosts = cuda.Costs{}
	cfg.LibCosts.DNNCreateTime = 0
	cfg.LibCosts.BLASCreateTime = 0
	cfg.LibCosts.DNNBytes = 0
	cfg.LibCosts.BLASBytes = 0
	cfg.GPUConfig = func(i int) gpu.Config {
		c := gpu.V100Config(i)
		c.CopyLat, c.KernelLat = 0, 0
		return c
	}
	return cfg
}

func TestStartCreatesServersAndAnnouncesCapacity(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		gs := New(e, fastConfig(4, 2, BestFit))
		gs.Start(p)
		if got := gs.Capacity(); got != 8 {
			t.Fatalf("Capacity = %d, want 8", got)
		}
		homes := map[int]int{}
		for _, s := range gs.Servers() {
			homes[s.HomeDev()]++
		}
		for g := 0; g < 4; g++ {
			if homes[g] != 2 {
				t.Fatalf("GPU %d homes %d servers, want 2", g, homes[g])
			}
		}
	})
}

func TestPrewarmParallelAndFootprint(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		cfg := DefaultConfig()
		cfg.GPUs = 2
		cfg.CUDACosts.InitJitter = 0
		gs := New(e, cfg)
		start := p.Now()
		gs.Start(p)
		boot := p.Now() - start
		// All servers prewarm in parallel: 3.2 + 1.2 + 0.2 = 4.6s total,
		// not 4.6s x servers.
		if boot < 4*time.Second || boot > 6*time.Second {
			t.Fatalf("boot took %v, want ~4.6s (parallel prewarm)", boot)
		}
		// Idle footprint per GPU: one API server's 755 MB (§V-C).
		for i, d := range gs.Devices() {
			want := int64(303+386+70) << 20
			if got := d.UsedBytes(); got != want {
				t.Fatalf("GPU %d idle footprint = %d MB, want 759 MB", i, got>>20)
			}
		}
	})
}

// fakeFn leases a server, holds it for d, and releases.
func holdLease(p *sim.Proc, gs *GPUServer, name string, mem int64, d time.Duration) *Lease {
	lease, _ := gs.Acquire(p, name, mem)
	p.Sleep(d)
	gs.Release(lease)
	return lease
}

func TestFCFSQueueing(t *testing.T) {
	e := sim.NewEngine(1)
	var order []string
	e.Run("root", func(p *sim.Proc) {
		gs := New(e, fastConfig(1, 1, BestFit))
		gs.Start(p)
		wg := sim.NewWaitGroup(e)
		for i := 0; i < 3; i++ {
			i := i
			wg.Add(1)
			p.Spawn(fmt.Sprintf("f%d", i), func(p *sim.Proc) {
				p.Sleep(time.Duration(i) * time.Millisecond) // fix arrival order
				name := fmt.Sprintf("f%d", i)
				lease, _ := gs.Acquire(p, name, 1<<30)
				order = append(order, name)
				p.Sleep(time.Second)
				gs.Release(lease)
				wg.Done()
			})
		}
		wg.Wait(p)
	})
	want := "[f0 f1 f2]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("grant order = %v, want %v", got, want)
	}
}

func TestQueueDelayMeasured(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		gs := New(e, fastConfig(1, 1, BestFit))
		gs.Start(p)
		wg := sim.NewWaitGroup(e)
		wg.Add(1)
		p.Spawn("holder", func(p *sim.Proc) {
			holdLease(p, gs, "a", 1<<30, 2*time.Second)
			wg.Done()
		})
		p.Sleep(time.Millisecond)
		lease, _ := gs.Acquire(p, "b", 1<<30)
		if lease.QueueDelay < 1900*time.Millisecond {
			t.Fatalf("QueueDelay = %v, want ~2s", lease.QueueDelay)
		}
		gs.Release(lease)
		wg.Wait(p)
	})
}

func TestHeadOfLineBlocking(t *testing.T) {
	// FCFS: a large function at the head blocks a small one that would fit,
	// exactly the behavior §VIII-D describes.
	e := sim.NewEngine(1)
	var smallGranted time.Duration
	e.Run("root", func(p *sim.Proc) {
		gs := New(e, fastConfig(1, 2, BestFit)) // 2 servers on one 16GB GPU
		gs.Start(p)
		wg := sim.NewWaitGroup(e)
		wg.Add(3)
		p.Spawn("big1", func(p *sim.Proc) { holdLease(p, gs, "big1", 10<<30, 4*time.Second); wg.Done() })
		p.Spawn("big2", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			holdLease(p, gs, "big2", 10<<30, 4*time.Second)
			wg.Done()
		})
		p.Spawn("small", func(p *sim.Proc) {
			p.Sleep(2 * time.Millisecond)
			lease, _ := gs.Acquire(p, "small", 1<<30)
			smallGranted = p.Now()
			gs.Release(lease)
			wg.Done()
		})
		wg.Wait(p)
	})
	// big2 (10GB) cannot co-run with big1 (10GB) on a 16GB GPU, so it waits;
	// small (1GB) would fit but must wait behind big2.
	if smallGranted < 4*time.Second {
		t.Fatalf("small function granted at %v, want after big1 finishes (~4s)", smallGranted)
	}
}

func TestBestFitCondensesWorstFitSpreads(t *testing.T) {
	place2 := func(pol Policy) [2]int {
		e := sim.NewEngine(1)
		var gpus [2]int
		e.Run("root", func(p *sim.Proc) {
			gs := New(e, fastConfig(2, 2, pol))
			gs.Start(p)
			// First function occupies some of GPU picked first.
			l1, _ := gs.Acquire(p, "a", 4<<30)
			l2, _ := gs.Acquire(p, "b", 4<<30)
			gpus[0] = l1.Server.HomeDev()
			gpus[1] = l2.Server.HomeDev()
			gs.Release(l1)
			gs.Release(l2)
		})
		return gpus
	}
	bf := place2(BestFit)
	if bf[0] != bf[1] {
		t.Fatalf("best fit spread functions across GPUs %v, want condensed", bf)
	}
	wf := place2(WorstFit)
	if wf[0] == wf[1] {
		t.Fatalf("worst fit condensed functions onto GPU %d, want spread", wf[0])
	}
}

func TestMemoryFitRespected(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		gs := New(e, fastConfig(2, 2, BestFit))
		gs.Start(p)
		l1, _ := gs.Acquire(p, "a", 12<<30)
		// 12GB committed on l1's GPU: a second 12GB function cannot share it.
		l2, _ := gs.Acquire(p, "b", 12<<30)
		if l1.Server.HomeDev() == l2.Server.HomeDev() {
			t.Fatalf("two 12GB functions placed on the same 16GB GPU")
		}
		gs.Release(l1)
		gs.Release(l2)
	})
}

func TestNoSharingLimitsConcurrency(t *testing.T) {
	e := sim.NewEngine(1)
	var maxConc, conc int
	e.Run("root", func(p *sim.Proc) {
		gs := New(e, fastConfig(2, 1, BestFit)) // no sharing: 2 concurrent max
		gs.Start(p)
		wg := sim.NewWaitGroup(e)
		for i := 0; i < 6; i++ {
			wg.Add(1)
			p.Spawn("f", func(p *sim.Proc) {
				lease, _ := gs.Acquire(p, "f", 1<<30)
				conc++
				if conc > maxConc {
					maxConc = conc
				}
				p.Sleep(time.Second)
				conc--
				gs.Release(lease)
				wg.Done()
			})
		}
		wg.Wait(p)
	})
	if maxConc != 2 {
		t.Fatalf("max concurrency without sharing = %d, want 2", maxConc)
	}
}

// contendedPair is the §VIII-E scenario in miniature: two equal functions
// forced onto GPU 0 (best fit) while GPU 1 idles. It returns the GPU each ran
// on after the monitor had time to act, and how many moves it made.
func contendedPair(t *testing.T) (devs [2]int, migrations int) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		cfg := fastConfig(2, 2, BestFit)
		cfg.EnableMigration = true
		gs := New(e, cfg)
		gs.Start(p)
		wg := sim.NewWaitGroup(e)
		for i := 0; i < 2; i++ {
			i := i
			wg.Add(1)
			p.Spawn("f", func(p *sim.Proc) {
				name := fmt.Sprintf("f%d", i)
				lease, _ := gs.Acquire(p, name, 2<<30)
				// Open a session so the server is genuinely busy, then give
				// the monitor time to notice the imbalance.
				conn := remoting.Dial(e, lease.Listener(), remoting.NetProfile{})
				lib := guest.New(conn, guest.OptNone)
				if err := lib.Hello(p, name, 2<<30); err != nil {
					t.Error(err)
				}
				if _, err := lib.Malloc(p, 1<<30); err != nil {
					t.Error(err)
				}
				p.Sleep(3 * time.Second)
				devs[i] = lease.Server.CurrentDev()
				_ = lib.Bye(p)
				gs.Release(lease)
				wg.Done()
			})
		}
		wg.Wait(p)
		migrations = gs.Migrations()
	})
	return devs, migrations
}

func TestMonitorMigratesOffContendedGPU(t *testing.T) {
	devs, migrations := contendedPair(t)
	if migrations == 0 {
		t.Fatal("monitor never migrated despite imbalance")
	}
	if devs[0] == devs[1] {
		t.Fatalf("both functions still on GPU %d after migration", devs[0])
	}
}

// TestMigrationVictimIsDeterministic: the two sessions hold the same memory,
// so which one moves is decided by the order the monitor looks at its leases
// — which must be the API servers' order, not a map's. At a6d90cb 40 runs of
// the one seed split 33/7.
func TestMigrationVictimIsDeterministic(t *testing.T) {
	first, _ := contendedPair(t)
	for i := 1; i < 40; i++ {
		if devs, _ := contendedPair(t); devs != first {
			t.Fatalf("run %d placed the pair on GPUs %v, run 0 on %v: the victim follows map order", i, devs, first)
		}
	}
}

// TestPlacementCountsMigratedSession: a session the monitor moved weighs on
// the GPU it moved to. a and b (7 GiB each) pack onto GPU 0 and one of them is
// migrated to GPU 1; c (13 GiB) then fits on neither GPU and must queue until
// one of them ends. With commitments kept by home GPU (e92d817) GPU 1 looked
// empty: c was granted there at once and its allocation failed.
func TestPlacementCountsMigratedSession(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		cfg := fastConfig(2, 2, BestFit)
		cfg.EnableMigration = true
		gs := New(e, cfg)
		gs.Start(p)
		run := func(name string, mem int64, hold time.Duration) func(p *sim.Proc) {
			return func(p *sim.Proc) {
				lease, err := gs.Acquire(p, name, mem)
				if err != nil {
					t.Errorf("%s: acquire: %v", name, err)
					return
				}
				lib := guest.New(remoting.Dial(e, lease.Listener(), remoting.NetProfile{}), guest.OptNone)
				if err := lib.Hello(p, name, mem); err != nil {
					t.Errorf("%s: hello: %v", name, err)
				}
				if _, err := lib.Malloc(p, mem-1<<30); err != nil {
					t.Errorf("%s on GPU %d after queueing %v: malloc: %v", name, lease.Server.CurrentDev(), lease.QueueDelay, err)
				}
				if name == "c" && lease.QueueDelay < 10*time.Second {
					t.Errorf("c was granted after %v: it fits on no GPU until a or b ends at t=20s", lease.QueueDelay)
				}
				p.Sleep(hold)
				_ = lib.Bye(p)
				gs.Release(lease)
			}
		}
		p.Spawn("a", run("a", 7<<30, 20*time.Second))
		p.Spawn("b", run("b", 7<<30, 20*time.Second))
		p.Sleep(5 * time.Second)
		if gs.Migrations() == 0 {
			t.Fatal("monitor never migrated despite imbalance")
		}
		run("c", 13<<30, 0)(p)
	})
}

// TestRefusedMigrationIsNotCounted: each session maps 3 GiB on a 1 GiB
// lease, so the monitor's room check (lease memory) passes on GPU 1's 2 GiB
// while Migrate's (every mapped reservation) refuses. Migrations counts the
// moves that happened, not the requests.
func TestRefusedMigrationIsNotCounted(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		cfg := fastConfig(2, 2, BestFit)
		cfg.EnableMigration = true
		gs := New(e, cfg)
		gs.Start(p)
		idle := gs.Devices()[1]
		if _, err := idle.AllocPhys(idle.FreeBytes() - 2<<30); err != nil {
			t.Fatal(err)
		}
		wg := sim.NewWaitGroup(e)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			p.Spawn("f", func(p *sim.Proc) {
				defer wg.Done()
				name := fmt.Sprintf("f%d", i)
				lease, err := gs.Acquire(p, name, 1<<30)
				if err != nil {
					t.Error(err)
					return
				}
				lib := guest.New(remoting.Dial(e, lease.Listener(), remoting.NetProfile{}), guest.OptNone)
				if err := lib.Hello(p, name, 4<<30); err != nil {
					t.Error(err)
				}
				if _, err := lib.Malloc(p, 3<<30); err != nil {
					t.Error(err)
				}
				p.Sleep(3 * time.Second)
				if dev := lease.Server.CurrentDev(); dev != 0 {
					t.Errorf("%s moved to GPU %d, which has no room for it", name, dev)
				}
				_ = lib.Bye(p)
				gs.Release(lease)
			})
		}
		wg.Wait(p)
		if n := gs.Migrations(); n != 0 {
			t.Errorf("Migrations() = %d after refused moves only, want 0", n)
		}
	})
}

func TestMigrationDisabledByDefault(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		cfg := fastConfig(2, 2, BestFit)
		gs := New(e, cfg)
		gs.Start(p)
		l1, _ := gs.Acquire(p, "a", 2<<30)
		l2, _ := gs.Acquire(p, "b", 2<<30)
		p.Sleep(2 * time.Second)
		if gs.Migrations() != 0 {
			t.Fatal("migration happened despite EnableMigration=false")
		}
		gs.Release(l1)
		gs.Release(l2)
	})
}

func TestPlacementRecords(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		gs := New(e, fastConfig(2, 1, WorstFit))
		gs.Start(p)
		l1, _ := gs.Acquire(p, "a", 1<<30)
		l2, _ := gs.Acquire(p, "b", 1<<30)
		gs.Release(l1)
		gs.Release(l2)
		recs := gs.Placements()
		if len(recs) != 2 {
			t.Fatalf("placements = %d, want 2", len(recs))
		}
		if recs[0].FnID != "a" || recs[1].FnID != "b" {
			t.Fatalf("placement order wrong: %+v", recs)
		}
	})
}

func TestUtilizationSamplersRunning(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		gs := New(e, fastConfig(1, 1, BestFit))
		gs.Start(p)
		p.Sleep(2 * time.Second)
		if n := len(gs.Samplers()[0].Samples()); n < 5 {
			t.Fatalf("sampler recorded %d samples in 2s, want >= 5", n)
		}
	})
}
