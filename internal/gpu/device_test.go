package gpu

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"dgsf/internal/sim"
)

func newTestDevice(e *sim.Engine) *Device {
	cfg := V100Config(0)
	cfg.CopyLat = 0
	cfg.KernelLat = 0
	return New(e, cfg)
}

func TestAllocAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		d := newTestDevice(e)
		a, err := d.AllocPhys(1 << 30)
		if err != nil {
			t.Fatalf("AllocPhys: %v", err)
		}
		if got := d.UsedBytes(); got != 1<<30 {
			t.Fatalf("UsedBytes = %d, want 1GiB", got)
		}
		b, err := d.AllocPhys(2 << 30)
		if err != nil {
			t.Fatalf("AllocPhys: %v", err)
		}
		a.Free()
		if got := d.UsedBytes(); got != 2<<30 {
			t.Fatalf("UsedBytes after free = %d, want 2GiB", got)
		}
		b.Free()
		if got, live := d.UsedBytes(), d.LiveAllocs(); got != 0 || live != 0 {
			t.Fatalf("after freeing all: used=%d live=%d", got, live)
		}
	})
}

func TestAllocOOM(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		d := newTestDevice(e)
		if _, err := d.AllocPhys(d.Cfg.MemBytes + 1); err == nil {
			t.Fatal("allocation above capacity succeeded")
		}
		a, err := d.AllocPhys(d.Cfg.MemBytes)
		if err != nil {
			t.Fatalf("full-capacity allocation failed: %v", err)
		}
		_, err = d.AllocPhys(1)
		var oom *OOMError
		if !errors.As(err, &oom) {
			t.Fatalf("expected OOMError, got %v", err)
		}
		if oom.Free != 0 {
			t.Fatalf("OOMError.Free = %d, want 0", oom.Free)
		}
		a.Free()
		if _, err := d.AllocPhys(1); err != nil {
			t.Fatalf("allocation after free failed: %v", err)
		}
	})
}

func TestAllocInvalidSize(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		d := newTestDevice(e)
		for _, sz := range []int64{0, -1} {
			if _, err := d.AllocPhys(sz); err == nil {
				t.Errorf("AllocPhys(%d) succeeded", sz)
			}
		}
	})
}

func TestDoubleFreePanics(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		d := newTestDevice(e)
		a, _ := d.AllocPhys(1024)
		a.Free()
		defer func() {
			if recover() == nil {
				t.Error("double free did not panic")
			}
		}()
		a.Free()
	})
}

func TestKernelSoloDuration(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		d := newTestDevice(e)
		start := p.Now()
		d.ExecKernel(p, 100*time.Millisecond)
		if got := p.Now() - start; got != 100*time.Millisecond {
			t.Fatalf("solo kernel took %v, want 100ms", got)
		}
	})
}

func TestKernelProcessorSharing(t *testing.T) {
	// Two equal kernels sharing the device each take 2x their solo time.
	e := sim.NewEngine(1)
	var aDone, bDone time.Duration
	e.Run("root", func(p *sim.Proc) {
		d := newTestDevice(e)
		wg := sim.NewWaitGroup(e)
		wg.Add(2)
		p.Spawn("a", func(p *sim.Proc) {
			d.ExecKernel(p, time.Second)
			aDone = p.Now()
			wg.Done()
		})
		p.Spawn("b", func(p *sim.Proc) {
			d.ExecKernel(p, time.Second)
			bDone = p.Now()
			wg.Done()
		})
		wg.Wait(p)
	})
	if aDone != 2*time.Second || bDone != 2*time.Second {
		t.Fatalf("shared kernels finished at %v and %v, want 2s both", aDone, bDone)
	}
}

func TestKernelUnequalSharing(t *testing.T) {
	// A 1s kernel and a 3s kernel start together: the short one sees rate
	// 1/2 until it finishes at t=2s; the long one then has 2s of work left
	// and finishes at t=4s.
	e := sim.NewEngine(1)
	var shortDone, longDone time.Duration
	e.Run("root", func(p *sim.Proc) {
		d := newTestDevice(e)
		wg := sim.NewWaitGroup(e)
		wg.Add(2)
		p.Spawn("short", func(p *sim.Proc) {
			d.ExecKernel(p, time.Second)
			shortDone = p.Now()
			wg.Done()
		})
		p.Spawn("long", func(p *sim.Proc) {
			d.ExecKernel(p, 3*time.Second)
			longDone = p.Now()
			wg.Done()
		})
		wg.Wait(p)
	})
	if shortDone != 2*time.Second {
		t.Fatalf("short kernel finished at %v, want 2s", shortDone)
	}
	if longDone != 4*time.Second {
		t.Fatalf("long kernel finished at %v, want 4s", longDone)
	}
}

func TestKernelLateArrivalSharing(t *testing.T) {
	// Kernel A (2s) starts at t=0; kernel B (1s) arrives at t=1s.
	// A runs solo for 1s (1s work left), then shares: both at rate 1/2.
	// B finishes at 1 + 2 = 3s; A also has 1s left at t=1 so finishes at 3s.
	e := sim.NewEngine(1)
	var aDone, bDone time.Duration
	e.Run("root", func(p *sim.Proc) {
		d := newTestDevice(e)
		wg := sim.NewWaitGroup(e)
		wg.Add(2)
		p.Spawn("a", func(p *sim.Proc) {
			d.ExecKernel(p, 2*time.Second)
			aDone = p.Now()
			wg.Done()
		})
		p.Spawn("b", func(p *sim.Proc) {
			p.Sleep(time.Second)
			d.ExecKernel(p, time.Second)
			bDone = p.Now()
			wg.Done()
		})
		wg.Wait(p)
	})
	if aDone != 3*time.Second || bDone != 3*time.Second {
		t.Fatalf("finish times a=%v b=%v, want 3s both", aDone, bDone)
	}
}

// Property: under processor sharing, total busy time equals total work, and
// every kernel takes at least its nominal duration.
func TestProcessorSharingConservationProperty(t *testing.T) {
	f := func(durs []uint16, seed int64) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 16 {
			durs = durs[:16]
		}
		e := sim.NewEngine(seed)
		d := New(e, Config{ID: 0, MemBytes: 1 << 30, D2DBps: 1e9, H2DBps: 1e9, D2HBps: 1e9, PeerBps: 1e9})
		ok := true
		var total time.Duration
		e.Run("root", func(p *sim.Proc) {
			wg := sim.NewWaitGroup(e)
			for _, u := range durs {
				nominal := time.Duration(u+1) * time.Microsecond
				total += nominal
				wg.Add(1)
				p.Spawn("k", func(p *sim.Proc) {
					start := p.Now()
					d.ExecKernel(p, nominal)
					if p.Now()-start < nominal {
						ok = false // finished faster than running alone
					}
					wg.Done()
				})
			}
			wg.Wait(p)
		})
		// Work conservation: all kernels started at t=0 and the device is
		// never idle until the last finishes, so busy time == total work
		// (within rounding of 1ns per wait iteration per kernel).
		slack := time.Duration(len(durs) * 64)
		busy := d.ComputeBusy()
		if busy < total-slack || busy > total+slack {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCopyBandwidth(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		cfg := V100Config(0)
		cfg.CopyLat = 0
		cfg.H2DBps = 1e9 // 1 GB/s for easy math
		d := New(e, cfg)
		a, _ := d.AllocPhys(1 << 30)
		start := p.Now()
		d.CopyH2D(p, a, HostBuffer{FP: 1, Size: 5e8}, 5e8)
		if got := p.Now() - start; got != 500*time.Millisecond {
			t.Fatalf("0.5GB at 1GB/s took %v, want 500ms", got)
		}
	})
}

func TestCrossDeviceCopySlowAndStampsContent(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		cfg0, cfg1 := V100Config(0), V100Config(1)
		cfg0.CopyLat, cfg1.CopyLat = 0, 0
		cfg0.PeerBps, cfg1.PeerBps = 2e9, 2e9
		d0, d1 := New(e, cfg0), New(e, cfg1)
		src, _ := d0.AllocPhys(1e9)
		dst, _ := d1.AllocPhys(1e9)
		d0.Memset(p, src, 0xAB, 1e9)
		want := src.Fingerprint()
		start := p.Now()
		CopyD2D(p, dst, src)
		if got := p.Now() - start; got != 500*time.Millisecond {
			t.Fatalf("1GB at 2GB/s peer took %v, want 500ms", got)
		}
		if dst.Fingerprint() != want {
			t.Fatalf("content fingerprint not preserved: %x vs %x", dst.Fingerprint(), want)
		}
	})
}

func TestMemsetAndMutateDeterministic(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		d := newTestDevice(e)
		a, _ := d.AllocPhys(4096)
		b, _ := d.AllocPhys(4096)
		d.Memset(p, a, 0, 4096)
		d.Memset(p, b, 0, 4096)
		MutateKernel(a, KernelHash("saxpy"))
		MutateKernel(b, KernelHash("saxpy"))
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatal("identical op sequences produced different fingerprints")
		}
		MutateKernel(a, KernelHash("gemm"))
		if a.Fingerprint() == b.Fingerprint() {
			t.Fatal("different kernels produced identical fingerprints")
		}
	})
}

// TestKernelHashMatchesPerAllocationHash: hashing a kernel's name once and
// stamping the hash gives every allocation the fingerprint that hashing the
// name rune by rune at each allocation gave it.
func TestKernelHashMatchesPerAllocationHash(t *testing.T) {
	for _, name := range []string{"saxpy", "gemm_kernel_128x64", "", "ядро", "核函数", "a\u00e9\U0001F600"} {
		h := uint64(0)
		for _, c := range name {
			h = Mix(h, uint64(c))
		}
		if got := KernelHash(name); got != h {
			t.Errorf("KernelHash(%q) = %x, want %x", name, got, h)
		}
		a := &PhysAlloc{fp: 12345}
		MutateKernel(a, KernelHash(name))
		if want := Mix(12345, h); a.fp != want {
			t.Errorf("MutateKernel with %q's hash: fingerprint %x, want %x", name, a.fp, want)
		}
	}
}

func TestD2HRoundTripObservesWrites(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		d := newTestDevice(e)
		a, _ := d.AllocPhys(1 << 20)
		d.CopyH2D(p, a, HostBuffer{FP: 77, Size: 1 << 20}, 1<<20)
		h1 := d.CopyD2H(p, a, 1<<20)
		MutateKernel(a, KernelHash("inc"))
		h2 := d.CopyD2H(p, a, 1<<20)
		if h1.FP == h2.FP {
			t.Fatal("kernel mutation not visible through D2H copy")
		}
	})
}

func TestSamplerMeasuresUtilization(t *testing.T) {
	e := sim.NewEngine(1)
	var s *Sampler
	e.Run("root", func(p *sim.Proc) {
		d := newTestDevice(e)
		s = NewSampler(d, 100*time.Millisecond)
		s.Start(e)
		// Busy for 1s, idle for 1s.
		d.ExecKernel(p, time.Second)
		p.Sleep(time.Second)
		s.Stop()
		p.Sleep(200 * time.Millisecond)
	})
	samples := s.Samples()
	if len(samples) < 15 {
		t.Fatalf("got %d samples, want >= 15", len(samples))
	}
	// First ~10 samples should read ~100, the following ~10 should read ~0.
	if samples[4].Util < 99 {
		t.Errorf("sample during busy period = %v, want ~100", samples[4].Util)
	}
	if samples[14].Util > 1 {
		t.Errorf("sample during idle period = %v, want ~0", samples[14].Util)
	}
}

func TestSamplerMovingAverage(t *testing.T) {
	s := &Sampler{samples: []Sample{
		{Util: 100}, {Util: 0}, {Util: 100}, {Util: 0}, {Util: 100},
	}}
	ma := s.MovingAverage(5)
	if got := ma[4].Util; got != 60 {
		t.Fatalf("window-5 average = %v, want 60", got)
	}
	if got := ma[0].Util; got != 100 {
		t.Fatalf("first element average = %v, want 100", got)
	}
	if got := s.MeanUtil(0, 0); got != 60 {
		t.Fatalf("MeanUtil = %v, want 60", got)
	}
}

func TestMixFingerprint(t *testing.T) {
	if Mix(0, 1) == Mix(0, 2) {
		t.Fatal("Mix collides on trivially different inputs")
	}
	if Mix(0, 1, 2) == Mix(0, 2, 1) {
		t.Fatal("Mix is order-insensitive")
	}
	if Mix(Mix(0, 1), 2) != Mix(0, 1, 2) {
		t.Fatal("Mix is not associative over folding")
	}
}
