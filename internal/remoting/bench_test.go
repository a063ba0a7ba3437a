package remoting

import (
	"bytes"
	"io"
	"testing"
)

func BenchmarkWriteFrame(b *testing.B) {
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.SetBytes(int64(frameHeaderLenV1 + len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(io.Discard, ProtoV1, payload, nil, 0); err != nil {
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
	if err := WriteFrame(&framed, ProtoV1, payload, nil, 7); err != nil {
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
		got, _, data, err := ReadFrame(&buf, ProtoV1, readBuf, nil)
		if err != nil || data != 7 || len(got) != len(payload) {
			b.Fatal("bad frame round trip")
		}
	}
}

// --- large-payload benches: the v2 vectored bulk lane against the v1
// coalescing path, at the sizes where zero-copy matters. Flat names (no
// sub-benchmarks) so cmd/benchjson and the CI perf gate track each size as
// its own series.

// benchFrameWriteV2 measures a v2 WriteFrame: header built in a pooled buffer,
// bulk borrowed as the second writev vector — no copy proportional to size.
func benchFrameWriteV2(b *testing.B, size int) {
	meta := make([]byte, 64)
	bulk := make([]byte, size)
	b.ReportAllocs()
	b.SetBytes(int64(frameHeaderLenV2 + len(meta) + size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(io.Discard, ProtoV2, meta, bulk, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFrameWriteCoalesce is the v1 baseline at the same sizes: the bulk is
// appended into the encoded payload (one copy, as the encoder does on a v1
// connection) and the frame write copies it again into the frame buffer.
func benchFrameWriteCoalesce(b *testing.B, size int) {
	meta := make([]byte, 64)
	bulk := make([]byte, size)
	scratch := make([]byte, 0, len(meta)+size)
	b.ReportAllocs()
	b.SetBytes(int64(frameHeaderLenV1 + len(meta) + size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := append(append(scratch[:0], meta...), bulk...)
		if err := WriteFrame(io.Discard, ProtoV1, payload, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameWriteV2_64KiB(b *testing.B)       { benchFrameWriteV2(b, 64<<10) }
func BenchmarkFrameWriteV2_1MiB(b *testing.B)        { benchFrameWriteV2(b, 1<<20) }
func BenchmarkFrameWriteV2_16MiB(b *testing.B)       { benchFrameWriteV2(b, 16<<20) }
func BenchmarkFrameWriteCoalesce_64KiB(b *testing.B) { benchFrameWriteCoalesce(b, 64<<10) }
func BenchmarkFrameWriteCoalesce_1MiB(b *testing.B)  { benchFrameWriteCoalesce(b, 1<<20) }
func BenchmarkFrameWriteCoalesce_16MiB(b *testing.B) { benchFrameWriteCoalesce(b, 16<<20) }

// The round-trip benches charge each protocol exactly its user-space work —
// frame construction on the way out (the wire itself is free: a writev hands
// the vectors to the kernel without copying) and payload recovery on the way
// in, reading a pre-built reply frame. What differs between the two paths is
// precisely what the benches compare: v2 borrows the bulk and scatter-reads
// the reply into the caller's buffer; v1 copies the bulk into the payload,
// copies the payload into the frame, and copies the decoded reply out.

// BenchmarkFrameRoundTripV2_1MiB: vectored 1 MiB write plus scatter-read of
// a 1 MiB reply into a pre-sized caller buffer — the full v2 data path.
func BenchmarkFrameRoundTripV2_1MiB(b *testing.B) {
	meta := make([]byte, 64)
	bulk := make([]byte, 1<<20)
	var reply bytes.Buffer
	if err := WriteFrame(&reply, ProtoV2, meta, bulk, 0); err != nil {
		b.Fatal(err)
	}
	frame := reply.Bytes()
	r := bytes.NewReader(frame)
	dst := make([]byte, len(bulk))
	readBuf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.SetBytes(int64(frameHeaderLenV2 + len(meta) + len(bulk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(io.Discard, ProtoV2, meta, bulk, 0); err != nil {
			b.Fatal(err)
		}
		r.Reset(frame)
		gotMeta, gotBulk, _, err := ReadFrame(r, ProtoV2, readBuf, dst)
		if err != nil || len(gotMeta) != len(meta) || len(gotBulk) != len(bulk) {
			b.Fatal("bad v2 round trip")
		}
	}
}

// BenchmarkFrameRoundTripCoalesce_1MiB is the v1 baseline round trip: the
// bulk is copied into the encoded payload and again into the frame buffer on
// the way out; the reply is read into a reused buffer and the caller copies
// the decoded bytes out of it, as the v1 reply-ownership contract requires.
func BenchmarkFrameRoundTripCoalesce_1MiB(b *testing.B) {
	meta := make([]byte, 64)
	bulk := make([]byte, 1<<20)
	scratch := make([]byte, 0, len(meta)+len(bulk))
	var reply bytes.Buffer
	if err := WriteFrame(&reply, ProtoV1, append(append(scratch[:0], meta...), bulk...), nil, 0); err != nil {
		b.Fatal(err)
	}
	frame := reply.Bytes()
	r := bytes.NewReader(frame)
	dst := make([]byte, len(bulk))
	readBuf := make([]byte, 0, len(meta)+len(bulk))
	b.ReportAllocs()
	b.SetBytes(int64(frameHeaderLenV1 + len(meta) + len(bulk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := append(append(scratch[:0], meta...), bulk...)
		if err := WriteFrame(io.Discard, ProtoV1, payload, nil, 0); err != nil {
			b.Fatal(err)
		}
		r.Reset(frame)
		got, _, _, err := ReadFrame(r, ProtoV1, readBuf, nil)
		if err != nil || len(got) != len(payload) {
			b.Fatal("bad v1 round trip")
		}
		copy(dst, got[len(meta):])
	}
}
