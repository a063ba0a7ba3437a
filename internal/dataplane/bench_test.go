package dataplane

import (
	"fmt"
	"testing"

	"dgsf/internal/gpu"
	"dgsf/internal/sim"
)

// The data-plane fast path runs once per chained invocation, so its
// bookkeeping must stay cheap next to the simulated transfers it models.
// These benchmarks pin the per-handoff costs: publish + zero-copy import +
// drop, namespace lookup, and the per-attempt Handoff reset.

func benchDevice() *gpu.Device {
	e := sim.NewEngine(1)
	c := gpu.V100Config(0)
	c.CopyLat, c.KernelLat = 0, 0
	return gpu.New(e, c)
}

func BenchmarkExportImportDrop(b *testing.B) {
	f := NewFabric(DefaultConfig(), nil)
	pl := f.NewPlane("gpu-0")
	dev := benchDevice()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := dev.AllocPhys(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		x := pl.Export("t", a)
		f.BeginImport(x)
		if !f.EndImport(x) {
			b.Fatal("export must drop on last EndImport")
		}
	}
}

func BenchmarkFabricLookup(b *testing.B) {
	f := NewFabric(DefaultConfig(), nil)
	pl := f.NewPlane("gpu-0")
	dev := benchDevice()
	ids := make([]uint64, 256)
	for i := range ids {
		a, err := dev.AllocPhys(1 << 10)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = pl.Export("t", a).ID()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := f.Lookup(ids[i%len(ids)]); !ok {
			b.Fatal("lookup missed")
		}
	}
}

func BenchmarkBroadcastSourceHit(b *testing.B) {
	f := NewFabric(DefaultConfig(), nil)
	pl := f.NewPlane("gpu-0")
	dev := benchDevice()
	for i := 0; i < 8; i++ {
		a, err := dev.AllocPhys(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		pl.sources[fmt.Sprintf("model-%d", i)] = a
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := pl.BroadcastSource("model-3"); !ok {
			b.Fatal("source missed")
		}
	}
}

func BenchmarkHandoffReset(b *testing.B) {
	h := &Handoff{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset(HandoffGPU)
		h.Export, h.Bytes = uint64(i)+1, 1<<20
		h.Reset(HandoffBounce)
	}
}

func BenchmarkTransferTimeModel(b *testing.B) {
	f := NewFabric(DefaultConfig(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.TransferTime(48<<20) <= 0 {
			b.Fatal("bad model")
		}
	}
}
