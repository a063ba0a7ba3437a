package native

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dgsf/internal/apiserver"
	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/gpu"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
)

// newBackend builds the native arm over one V100 inside p's engine and opens
// its session.
func newBackend(t *testing.T, p *sim.Proc) *apiserver.Native {
	e := p.Engine()
	rt := cuda.NewRuntime(e, []*gpu.Device{gpu.New(e, gpu.V100Config(0))}, cuda.DefaultCosts())
	b := New(rt, cudalibs.DefaultCosts())
	if err := b.Hello(p, "fn", 16<<30); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLazyInitChargedOnFirstCall(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		start := p.Now()
		b := newBackend(t, p)
		first := p.Now() - start
		// Native runtime initialization (~3.2 s in Table II) is paid here.
		if first < time.Second {
			t.Fatalf("first call took %v, expected runtime init on the critical path", first)
		}
		start = p.Now()
		if _, err := b.GetDeviceCount(p); err != nil {
			t.Fatal(err)
		}
		if second := p.Now() - start; second >= first {
			t.Fatalf("second call (%v) not cheaper than first (%v)", second, first)
		}
	})
}

// TestDeviceQueriesCostAPITime: the device queries the API server
// virtualizes (§V-B) are answered by the runtime on the native arm, at
// APITime each, where an unpooled API server answers them for free.
func TestDeviceQueriesCostAPITime(t *testing.T) {
	const apiTime = 7 * time.Microsecond
	queries := []struct {
		name string
		call func(*sim.Proc, gen.API, cuda.DevPtr) error
	}{
		{"GetDeviceCount", func(p *sim.Proc, api gen.API, _ cuda.DevPtr) error { _, err := api.GetDeviceCount(p); return err }},
		{"SetDevice", func(p *sim.Proc, api gen.API, _ cuda.DevPtr) error { return api.SetDevice(p, 0) }},
		{"GetDevice", func(p *sim.Proc, api gen.API, _ cuda.DevPtr) error { _, err := api.GetDevice(p); return err }},
		{"MemGetInfo", func(p *sim.Proc, api gen.API, _ cuda.DevPtr) error { _, _, err := api.MemGetInfo(p); return err }},
		{"PointerGetAttributes", func(p *sim.Proc, api gen.API, ptr cuda.DevPtr) error {
			_, err := api.PointerGetAttributes(p, ptr)
			return err
		}},
	}
	arms := []struct {
		name string
		new  func(*cuda.Runtime) gen.API
		want time.Duration
	}{
		{"native", func(rt *cuda.Runtime) gen.API { return New(rt, cudalibs.Costs{}) }, apiTime},
		{"apiserver", func(rt *cuda.Runtime) gen.API { return apiserver.NewServer(rt.Engine(), rt, apiserver.Config{}) }, 0},
	}
	for _, q := range queries {
		for _, arm := range arms {
			e := sim.NewEngine(1)
			e.Run("root", func(p *sim.Proc) {
				rt := cuda.NewRuntime(e, []*gpu.Device{gpu.New(e, gpu.V100Config(0))}, cuda.Costs{APITime: apiTime})
				api := arm.new(rt)
				if err := api.Hello(p, "fn", 1<<30); err != nil {
					t.Fatal(err)
				}
				ptr, err := api.Malloc(p, 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				start := p.Now()
				if err := q.call(p, api, ptr); err != nil {
					t.Fatalf("%s on %s: %v", q.name, arm.name, err)
				}
				if got := p.Now() - start; got != arm.want {
					t.Errorf("%s on %s took %v, want %v", q.name, arm.name, got, arm.want)
				}
			})
		}
	}
}

func TestMallocMemcpyFreeRoundtrip(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		b := newBackend(t, p)
		ptr, err := b.Malloc(p, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		src := gpu.HostBuffer{FP: 99, Size: 64 << 20}
		if err := b.MemcpyH2D(p, ptr, src, 64<<20); err != nil {
			t.Fatal(err)
		}
		out, err := b.MemcpyD2H(p, ptr, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		if out.Size != 64<<20 || out.FP == 0 {
			t.Fatalf("readback = %+v, want %d content bytes", out, 64<<20)
		}
		// Content is synthetic but deterministic: the same upload reads
		// back the same fingerprint.
		again, err := b.MemcpyD2H(p, ptr, 64<<20)
		if err != nil || again.FP != out.FP {
			t.Fatalf("repeat readback %+v (err %v), want FP %d", again, err, out.FP)
		}
		attrs, err := b.PointerGetAttributes(p, ptr)
		if err != nil || !attrs.IsDevice {
			t.Fatalf("attributes = %+v, err %v", attrs, err)
		}
		if err := b.Free(p, ptr); err != nil {
			t.Fatal(err)
		}
		if _, err := b.PointerGetAttributes(p, ptr); err == nil {
			t.Fatal("freed pointer still resolves")
		}
	})
}

func TestHostAllocLifecycle(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		b := newBackend(t, p)
		h, err := b.MallocHost(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.FreeHost(p, h); err != nil {
			t.Fatal(err)
		}
		if err := b.FreeHost(p, h); err == nil {
			t.Fatal("double free of a host allocation succeeded")
		}
	})
}

func TestModelCallsDegenerate(t *testing.T) {
	// Natively there is no API server to retain model state: ModelAttach
	// always misses and ModelPersist behaves exactly like Free.
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		b := newBackend(t, p)
		ptr, sz, tier, err := b.ModelAttach(p)
		if err != nil || ptr != 0 || sz != 0 || tier != 0 {
			t.Fatalf("ModelAttach = (%v, %d, %d, %v), want a plain miss", ptr, sz, tier, err)
		}
		buf, err := b.Malloc(p, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.ModelPersist(p, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := b.PointerGetAttributes(p, buf); err == nil {
			t.Fatal("ModelPersist did not free the allocation")
		}
	})
}

func TestKernelAndLibraryPath(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		b := newBackend(t, p)
		fns, err := b.RegisterKernels(p, []string{"k::a", "k::b"})
		if err != nil || len(fns) != 2 {
			t.Fatalf("RegisterKernels = %v, %v", fns, err)
		}
		buf, err := b.Malloc(p, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.LaunchKernel(p, cuda.LaunchParams{Fn: fns[0], Duration: time.Millisecond, Mutates: []cuda.DevPtr{buf}}); err != nil {
			t.Fatal(err)
		}
		dnn, err := b.DnnCreate(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.DnnForward(p, dnn, "op", time.Millisecond, []cuda.DevPtr{buf}, nil); err != nil {
			t.Fatal(err)
		}
		d, err := b.DnnCreateTensorDescriptor(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.DnnSetTensorDescriptor(p, d); err != nil {
			t.Fatal(err)
		}
		if err := b.DnnDestroyTensorDescriptor(p, d); err != nil {
			t.Fatal(err)
		}
		if err := b.DnnDestroy(p, dnn); err != nil {
			t.Fatal(err)
		}
		if err := b.DeviceSynchronize(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBulkBoundsAndLifetime: the native arm keeps uploaded bytes in the same
// store as the API server, under the same rules — ranges stay inside the
// allocation that contains the pointer, and Free drops the bytes.
func TestBulkBoundsAndLifetime(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		b := newBackend(t, p)
		ptr, err := b.Malloc(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{0xA5}, 96)
		for _, c := range []struct {
			name string
			err  error
			want error
		}{
			{"write past the end", b.MemWrite(p, ptr+4000, make([]byte, 97)), cuda.ErrInvalidValue},
			{"write larger than the allocation", b.MemWrite(p, ptr, make([]byte, 8192)), cuda.ErrInvalidValue},
			{"write stray pointer", b.MemWrite(p, 0x1234, data), cuda.ErrInvalidAddressSpace},
			{"write interior to the end", b.MemWrite(p, ptr+4000, data), nil},
		} {
			if !errors.Is(c.err, c.want) {
				t.Errorf("%s = %v, want %v", c.name, c.err, c.want)
			}
		}
		for _, c := range []struct {
			name string
			off  cuda.DevPtr
			n    int64
			want error
		}{
			{"read size -1", 0, -1, cuda.ErrInvalidValue},
			{"read size 1<<40", 0, 1 << 40, cuda.ErrInvalidValue},
			{"read extent+1", 0, 4097, cuda.ErrInvalidValue},
			{"read interior past the end", 4000, 97, cuda.ErrInvalidValue},
		} {
			if _, err := b.MemRead(p, ptr+c.off, c.n); !errors.Is(err, c.want) {
				t.Errorf("%s = %v, want %v", c.name, err, c.want)
			}
		}
		got, err := b.MemRead(p, ptr+3990, 106)
		if want := append(make([]byte, 10), data...); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read across the upload's start: err %v, got %v", err, got)
		}
		if err := b.Free(p, ptr); err != nil {
			t.Fatal(err)
		}
		if n, _, held := b.Held(); n != 0 || held != 0 {
			t.Fatalf("store holds %d bytes in %d allocations after Free", held, n)
		}
		if _, err := b.MemRead(p, ptr, 16); !errors.Is(err, cuda.ErrInvalidAddressSpace) {
			t.Fatalf("read of a freed pointer = %v, want ErrInvalidAddressSpace", err)
		}
	})
}
