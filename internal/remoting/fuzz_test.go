package remoting

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame drives the frame reader with arbitrary byte streams —
// truncated headers, mid-frame truncation, hostile length prefixes — and
// checks the two invariants every caller relies on: a failure is always a
// typed connection fault (IsConnFault), and a success never fabricates
// bytes that were not on the wire.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	if err := WriteFrame(&good, ProtoV1, []byte("hello dgsf"), nil, 10); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())                      // well-formed frame
	f.Add(good.Bytes()[:frameHeaderLenV1+3]) // mid-frame truncation
	f.Add(good.Bytes()[:5])                  // mid-header truncation
	f.Add([]byte{})                          // empty stream

	hostile := make([]byte, frameHeaderLenV1)
	binary.LittleEndian.PutUint32(hostile, 0xFFFF_FFFF) // over the frame cap
	f.Add(hostile)

	big := make([]byte, frameHeaderLenV1)
	binary.LittleEndian.PutUint32(big, maxFrameLen) // at the cap, body missing
	f.Add(append(big, bytes.Repeat([]byte{0xAB}, 1024)...))

	f.Fuzz(func(t *testing.T, in []byte) {
		payload, _, _, err := ReadFrame(bytes.NewReader(in), ProtoV1, nil, nil)
		if err != nil {
			if !IsConnFault(err) {
				t.Fatalf("ReadFrame error is not a typed conn fault: %v", err)
			}
			return
		}
		if len(in) < frameHeaderLenV1 {
			t.Fatalf("ReadFrame succeeded on a %d-byte stream", len(in))
		}
		declared := binary.LittleEndian.Uint32(in[0:4])
		if uint32(len(payload)) != declared {
			t.Fatalf("payload length %d disagrees with prefix %d", len(payload), declared)
		}
		if len(payload) > maxFrameLen {
			t.Fatalf("payload %d exceeds maxFrameLen", len(payload))
		}
		if len(payload) > len(in)-frameHeaderLenV1 {
			t.Fatalf("payload %d longer than the %d body bytes on the wire", len(payload), len(in)-frameHeaderLenV1)
		}
		if !bytes.Equal(payload, in[frameHeaderLenV1:frameHeaderLenV1+len(payload)]) {
			t.Fatal("payload does not match wire bytes")
		}
	})
}

// FuzzReadFrameV2 drives the v2 frame reader with arbitrary streams. Same
// invariants as FuzzReadFrame, plus the v2 header checks: bad magic, bad
// version, bulk bytes without the bulk flag, hostile meta/bulk lengths.
func FuzzReadFrameV2(f *testing.F) {
	var noBulk, small, big bytes.Buffer
	if err := WriteFrame(&noBulk, ProtoV2, []byte("meta only"), nil, 3); err != nil {
		f.Fatal(err)
	}
	if err := WriteFrame(&small, ProtoV2, []byte("m"), bytes.Repeat([]byte{1}, 100), 0); err != nil {
		f.Fatal(err)
	}
	if err := WriteFrame(&big, ProtoV2, []byte("m"), bytes.Repeat([]byte{2}, vecCoalesceMax+100), -1); err != nil {
		f.Fatal(err)
	}
	f.Add(noBulk.Bytes())
	f.Add(small.Bytes())
	f.Add(big.Bytes())                       // vectored-path frame
	f.Add(big.Bytes()[:frameHeaderLenV2+1])  // truncated after the header
	f.Add(big.Bytes()[:5])                   // mid-header truncation
	f.Add([]byte{})                          // empty stream
	f.Add([]byte{FrameMagic, 9, 0, 0})       // future version
	f.Add([]byte{0x00, byte(ProtoV2), 0, 0}) // bad magic
	noFlag := append([]byte(nil), small.Bytes()...)
	noFlag[2], noFlag[3] = 0, 0 // strip flagBulk while bulkLen stays set
	f.Add(noFlag)
	hostile := make([]byte, frameHeaderLenV2)
	hostile[0], hostile[1] = FrameMagic, byte(ProtoV2)
	binary.LittleEndian.PutUint32(hostile[4:8], 0xFFFF_FFFF)
	binary.LittleEndian.PutUint32(hostile[8:12], 0xFFFF_FFFF)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, in []byte) {
		payload, bulk, _, err := ReadFrame(bytes.NewReader(in), ProtoV2, nil, nil)
		if err != nil {
			if !IsConnFault(err) {
				t.Fatalf("ReadFrame error is not a typed conn fault: %v", err)
			}
			return
		}
		if len(in) < frameHeaderLenV2 {
			t.Fatalf("ReadFrame succeeded on a %d-byte stream", len(in))
		}
		metaLen := binary.LittleEndian.Uint32(in[4:8])
		bulkLen := binary.LittleEndian.Uint32(in[8:12])
		if uint32(len(payload)) != metaLen || uint32(len(bulk)) != bulkLen {
			t.Fatalf("lengths %d/%d disagree with header %d/%d", len(payload), len(bulk), metaLen, bulkLen)
		}
		body := in[frameHeaderLenV2:]
		if !bytes.Equal(payload, body[:len(payload)]) {
			t.Fatal("metadata does not match wire bytes")
		}
		if !bytes.Equal(bulk, body[len(payload):len(payload)+len(bulk)]) {
			t.Fatal("bulk does not match wire bytes")
		}
	})
}

// FuzzFrameRoundtripV2 checks WriteFrame|ReadFrame at v2 is the identity on
// metadata, bulk and data, across the coalesced and vectored write paths and
// both scatter destinations (pre-sized and absent).
func FuzzFrameRoundtripV2(f *testing.F) {
	f.Add([]byte("meta"), []byte("bulk"), int64(7), true)
	f.Add([]byte{}, []byte{}, int64(0), false)
	f.Add([]byte("m"), bytes.Repeat([]byte{0x5A}, vecCoalesceMax+17), int64(-1), true) // vectored path
	f.Fuzz(func(t *testing.T, meta, bulk []byte, data int64, presize bool) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, ProtoV2, meta, bulk, data); err != nil {
			t.Fatal(err)
		}
		var dst []byte
		if presize {
			dst = make([]byte, len(bulk))
		}
		gotMeta, gotBulk, gotData, err := ReadFrame(&buf, ProtoV2, nil, dst)
		if err != nil {
			t.Fatal(err)
		}
		if gotData != data || !bytes.Equal(gotMeta, meta) || !bytes.Equal(gotBulk, bulk) {
			t.Fatalf("roundtrip mismatch: %d meta/%d bulk/%d data, want %d/%d/%d",
				len(gotMeta), len(gotBulk), gotData, len(meta), len(bulk), data)
		}
	})
}

// FuzzHello drives the negotiation codec: HandleHello must never panic or
// produce a reply its own parser rejects, and parseHelloReply must never
// panic or return an out-of-range version.
func FuzzHello(f *testing.F) {
	f.Add(helloRequest(MaxProtoVersion), MaxProtoVersion)
	f.Add(helloRequest(1), 1)
	f.Add(helloRequest(200), MaxProtoVersion)
	f.Add([]byte{}, MaxProtoVersion)
	f.Add([]byte{0xFC, 0xFF, 0x00, 0x02}, MaxProtoVersion) // hello ID, bad magic
	f.Fuzz(func(t *testing.T, payload []byte, serverMax int) {
		reply, version, ok := HandleHello(payload, serverMax)
		if ok {
			if version < ProtoV1 || version > serverMax {
				t.Fatalf("negotiated version %d outside [1, %d]", version, serverMax)
			}
			v, pok := parseHelloReply(reply)
			if version <= MaxProtoVersion && (!pok || v != version) {
				t.Fatalf("reply round trip = %d %v, want %d", v, pok, version)
			}
		}
		// The same bytes through the reply parser: must not panic, and an
		// accepted reply always carries an in-range version.
		if v, pok := parseHelloReply(payload); pok && (v < ProtoV1 || v > MaxProtoVersion) {
			t.Fatalf("parseHelloReply accepted out-of-range version %d", v)
		}
	})
}

// FuzzFrameRoundtrip checks WriteFrame|ReadFrame at v1 is the identity on
// payload and data for arbitrary inputs.
func FuzzFrameRoundtrip(f *testing.F) {
	f.Add([]byte("payload"), int64(7))
	f.Add([]byte{}, int64(0))
	f.Add(bytes.Repeat([]byte{0x5A}, maxPooledFrame+17), int64(-1)) // beyond the pooled size class
	f.Fuzz(func(t *testing.T, payload []byte, data int64) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, ProtoV1, payload, nil, data); err != nil {
			t.Fatal(err)
		}
		got, _, gotData, err := ReadFrame(&buf, ProtoV1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gotData != data || !bytes.Equal(got, payload) {
			t.Fatalf("roundtrip mismatch: %d bytes/%d data, want %d/%d", len(got), gotData, len(payload), data)
		}
	})
}
