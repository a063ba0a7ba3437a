package guest

import (
	"testing"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// The guest call path's micro-benchmarks, one per lane and tier, published
// as BENCH_guest.json and gated in CI. Each body runs as the root process of
// a fresh engine (a locally answered call sleeps its CPU cost) over a
// loopback that answers every round trip with the same all-zero reply —
// status 0 and zero-valued results for any call — so what is timed is the
// library: lane choice, encoding, bookkeeping, journaling.

type fixedReply struct{ reply [32]byte }

func (c *fixedReply) Roundtrip(*sim.Proc, []byte, int64) ([]byte, error) { return c.reply[:], nil }
func (c *fixedReply) Close()                                             {}

// Submit consumes the message, as a transport's far end does: the request is
// Submit's, and its consumer returns it to the payload pool.
func (c *fixedReply) Submit(_ *sim.Proc, req []byte, _ int64) error {
	wire.PutBuf(req)
	return nil
}

func benchGuest(b *testing.B, root func(p *sim.Proc)) {
	b.ReportAllocs()
	sim.NewEngine(1).Run("bench", root)
}

var benchLaunch = cuda.LaunchParams{Fn: 1, Grid: [3]int{64, 1, 1}, Block: [3]int{256, 1, 1}, Duration: time.Millisecond}

// BenchmarkLaunchKernel_OptAll is the batching tier's launch: deferred, one
// batch round trip per 64.
func BenchmarkLaunchKernel_OptAll(b *testing.B) {
	benchGuest(b, func(p *sim.Proc) {
		lib := New(&fixedReply{}, OptAll)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = lib.LaunchKernel(p, benchLaunch)
			if i%64 == 63 {
				lib.FlushBatch(p)
			}
		}
	})
}

// BenchmarkLaunchKernel_Async is the pipelined tier's launch: a one-way
// submission, with a synchronizing call (fence + round trip) per 64.
func BenchmarkLaunchKernel_Async(b *testing.B) {
	benchGuest(b, func(p *sim.Proc) {
		lib := New(&fixedReply{}, OptAll|OptAsync)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = lib.LaunchKernel(p, benchLaunch)
			if i%64 == 63 {
				_ = lib.DeviceSynchronize(p)
			}
		}
	})
}

// BenchmarkLocalDescriptorTriple_OptAll is a descriptor's whole life answered
// in the guest: create, set, destroy.
func BenchmarkLocalDescriptorTriple_OptAll(b *testing.B) {
	benchGuest(b, func(p *sim.Proc) {
		lib := New(&fixedReply{}, OptAll)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, _ := lib.DnnCreateTensorDescriptor(p)
			_ = lib.DnnSetTensorDescriptor(p, d)
			_ = lib.DnnDestroyTensorDescriptor(p, d)
		}
	})
}

// BenchmarkSyncCall_OptAll is one result-bearing round trip with nothing to
// flush or fence ahead of it.
func BenchmarkSyncCall_OptAll(b *testing.B) {
	benchGuest(b, func(p *sim.Proc) {
		lib := New(&fixedReply{}, OptAll)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _, _ = lib.MemGetInfo(p)
		}
	})
}

// BenchmarkSyncCall_OptNone_Launch is the unoptimized launch: push
// configuration, launch, pop configuration, three round trips.
func BenchmarkSyncCall_OptNone_Launch(b *testing.B) {
	benchGuest(b, func(p *sim.Proc) {
		lib := New(&fixedReply{}, OptNone)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = lib.LaunchKernel(p, benchLaunch)
		}
	})
}

// benchRecoverable runs op on a recoverable library that is replaced every
// 1024 operations: the replay journal keeps a (dead) entry for everything
// ever established, so one library for all of b.N would time the journal's
// growth, not the call.
func benchRecoverable(b *testing.B, op func(p *sim.Proc, lib *Lib)) {
	benchGuest(b, func(p *sim.Proc) {
		conn := &fixedReply{}
		rc := RecoveryConfig{Redial: func(*sim.Proc) (remoting.Caller, error) { return conn, nil }}
		var lib *Lib
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				lib = NewRecoverable(conn, OptAll, rc)
			}
			op(p, lib)
		}
	})
}

// BenchmarkMalloc_Recoverable is an allocation on a recoverable library: the
// round trip plus a virtual pointer, its mapping and its journal entry.
func BenchmarkMalloc_Recoverable(b *testing.B) {
	benchRecoverable(b, func(p *sim.Proc, lib *Lib) {
		_, _ = lib.Malloc(p, 4096)
	})
}

// BenchmarkStreamCreateDestroy_Recoverable is a handle's life on a
// recoverable library: created synchronously (minted, mapped, journaled),
// destroyed in the batch the next create flushes (entry retired on
// confirmation).
func BenchmarkStreamCreateDestroy_Recoverable(b *testing.B) {
	benchRecoverable(b, func(p *sim.Proc, lib *Lib) {
		h, _ := lib.StreamCreate(p)
		_ = lib.StreamDestroy(p, h)
	})
}
