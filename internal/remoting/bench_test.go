package remoting

import (
	"bytes"
	"io"
	"testing"
)

func BenchmarkWriteFrame(b *testing.B) {
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.SetBytes(int64(frameHeaderLen + len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(io.Discard, payload, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameRoundTrip measures the frame round trip as a serialized
// caller runs it: the reply is read into a reused metadata buffer,
// so the steady state allocates nothing.
func BenchmarkFrameRoundTrip(b *testing.B) {
	payload := make([]byte, 256)
	var framed bytes.Buffer
	if err := WriteFrame(&framed, payload, nil, 7); err != nil {
		b.Fatal(err)
	}
	wire := framed.Bytes()
	var buf bytes.Buffer
	readBuf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		buf.Write(wire)
		got, _, data, err := ReadFrame(&buf, readBuf, nil)
		if err != nil || data != 7 || len(got) != len(payload) {
			b.Fatal("bad frame round trip")
		}
	}
}

// --- large-payload benches: the vectored bulk lane at the sizes where
// zero-copy matters. Flat names (no sub-benchmarks) so cmd/benchjson and the
// CI perf gate track each size as its own series.

// benchFrameWriteV2 measures a WriteFrame with a bulk region: header built in
// a pooled buffer, bulk borrowed as the second writev vector — no copy
// proportional to size.
func benchFrameWriteV2(b *testing.B, size int) {
	meta := make([]byte, 64)
	bulk := make([]byte, size)
	b.ReportAllocs()
	b.SetBytes(int64(frameHeaderLen + len(meta) + size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(io.Discard, meta, bulk, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameWriteV2_64KiB(b *testing.B) { benchFrameWriteV2(b, 64<<10) }
func BenchmarkFrameWriteV2_1MiB(b *testing.B)  { benchFrameWriteV2(b, 1<<20) }
func BenchmarkFrameWriteV2_16MiB(b *testing.B) { benchFrameWriteV2(b, 16<<20) }

// BenchmarkFrameRoundTripV2_1MiB: vectored 1 MiB write plus scatter-read of
// a 1 MiB reply into a pre-sized caller buffer — the full bulk data path.
// Frame construction on the way out (the wire itself is free: a writev hands
// the vectors to the kernel without copying) and payload recovery on the way
// in, reading a pre-built reply frame.
func BenchmarkFrameRoundTripV2_1MiB(b *testing.B) {
	meta := make([]byte, 64)
	bulk := make([]byte, 1<<20)
	var reply bytes.Buffer
	if err := WriteFrame(&reply, meta, bulk, 0); err != nil {
		b.Fatal(err)
	}
	frame := reply.Bytes()
	r := bytes.NewReader(frame)
	dst := make([]byte, len(bulk))
	readBuf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.SetBytes(int64(frameHeaderLen + len(meta) + len(bulk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(io.Discard, meta, bulk, 0); err != nil {
			b.Fatal(err)
		}
		r.Reset(frame)
		gotMeta, gotBulk, _, err := ReadFrame(r, readBuf, dst)
		if err != nil || len(gotMeta) != len(meta) || len(gotBulk) != len(bulk) {
			b.Fatal("bad round trip")
		}
	}
}
