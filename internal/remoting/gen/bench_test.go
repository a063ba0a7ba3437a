package gen_test

import (
	"testing"

	"dgsf/internal/cuda"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// fixedResp satisfies remoting.Caller with a canned response: it measures the
// generated client's own encode/decode cost with zero transport cost.
type fixedResp struct {
	resp []byte
}

func (f *fixedResp) Roundtrip(p *sim.Proc, req []byte, reqData int64) ([]byte, error) {
	return f.resp, nil
}
func (f *fixedResp) Close() {}

// fixedVecResp is fixedResp with the bulk lane: it additionally satisfies
// remoting.VecCaller, modeling the transport's ownership handoff
// (request bulk borrowed, reply bulk scatter-copied into respDst) with zero
// transport cost, so the benchmarks isolate the stub's own overhead.
type fixedVecResp struct {
	resp []byte
	bulk []byte
}

func (f *fixedVecResp) Roundtrip(p *sim.Proc, req []byte, reqData int64) ([]byte, error) {
	return f.resp, nil
}
func (f *fixedVecResp) Close()            {}
func (f *fixedVecResp) ProtoVersion() int { return remoting.ProtoV2 }
func (f *fixedVecResp) RoundtripVec(p *sim.Proc, req, reqBulk, respDst []byte) ([]byte, []byte, error) {
	var bulk []byte
	if f.bulk != nil {
		if cap(respDst) >= len(f.bulk) {
			bulk = respDst[:len(f.bulk)]
		} else {
			bulk = make([]byte, len(f.bulk))
		}
		copy(bulk, f.bulk)
	}
	return f.resp, bulk, nil
}

func okResp(body func(e *wire.Encoder)) []byte {
	var e wire.Encoder
	e.I32(0)
	if body != nil {
		body(&e)
	}
	out := make([]byte, len(e.Bytes()))
	copy(out, e.Bytes())
	return out
}

// BenchmarkClientMemset measures a full client call with an empty response:
// the steady-state cost of the guest-side stub.
func BenchmarkClientMemset(b *testing.B) {
	c := &gen.Client{T: &fixedResp{resp: okResp(nil)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Memset(nil, 0x10_0000, 0, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientMalloc measures a client call that decodes a response body.
func BenchmarkClientMalloc(b *testing.B) {
	c := &gen.Client{T: &fixedResp{resp: okResp(func(e *wire.Encoder) {
		(&gen.MallocResp{Ptr: cuda.DevPtr(0x10_0000)}).Encode(e)
	})}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, err := c.Malloc(nil, 1<<20)
		if err != nil || ptr == 0 {
			b.Fatal("bad call")
		}
	}
}

// BenchmarkClientMemExport measures the data-plane export stub: a string tag
// on the request, two scalars back.
func BenchmarkClientMemExport(b *testing.B) {
	c := &gen.Client{T: &fixedResp{resp: okResp(func(e *wire.Encoder) {
		(&gen.MemExportResp{Export: 7, Size: 48 << 20}).Encode(e)
	})}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		export, size, err := c.MemExport(nil, 0x10_0000, "detect-out")
		if err != nil || export == 0 || size == 0 {
			b.Fatal("bad call")
		}
	}
}

// BenchmarkClientMemImport measures the data-plane import stub, the per-chain
// hot call on the consumer side.
func BenchmarkClientMemImport(b *testing.B) {
	c := &gen.Client{T: &fixedResp{resp: okResp(func(e *wire.Encoder) {
		(&gen.MemImportResp{Ptr: cuda.DevPtr(0x10_0000), Size: 48 << 20}).Encode(e)
	})}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, size, err := c.MemImport(nil, 7)
		if err != nil || ptr == 0 || size == 0 {
			b.Fatal("bad call")
		}
	}
}

// BenchmarkClientMemWriteVec_1MiB is the protocol-v2 vectored path: the bulk
// is borrowed by the transport, never copied by the stub.
func BenchmarkClientMemWriteVec_1MiB(b *testing.B) {
	c := &gen.Client{T: &fixedVecResp{resp: okResp(nil)}}
	data := make([]byte, 1<<20)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.MemWrite(nil, 0x10_0000, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientMemReadVec_1MiB is the protocol-v2 scatter read into a
// pre-sized caller buffer: one copy off the wire, no allocation.
func BenchmarkClientMemReadVec_1MiB(b *testing.B) {
	payload := make([]byte, 1<<20)
	c := &gen.Client{T: &fixedVecResp{resp: okResp(nil), bulk: payload}}
	dst := make([]byte, len(payload))
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := c.MemReadInto(nil, 0x10_0000, int64(len(payload)), dst)
		if err != nil || len(data) != len(payload) {
			b.Fatal("bad call")
		}
	}
}

// BenchmarkClientModelBroadcast measures the fan-out stub: argument-free
// request, three scalars back.
func BenchmarkClientModelBroadcast(b *testing.B) {
	c := &gen.Client{T: &fixedResp{resp: okResp(func(e *wire.Encoder) {
		(&gen.ModelBroadcastResp{Ptr: cuda.DevPtr(0x10_0000), Size: 104 << 20, Src: 2}).Encode(e)
	})}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, size, _, err := c.ModelBroadcast(nil)
		if err != nil || ptr == 0 || size == 0 {
			b.Fatal("bad call")
		}
	}
}
