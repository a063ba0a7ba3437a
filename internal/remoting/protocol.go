package remoting

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"dgsf/internal/metrics"
	"dgsf/internal/remoting/wire"
)

// ProtoV2 is the wire protocol every connection speaks from its first byte:
// a 20-byte header carrying a magic/version byte pair, then the metadata and
// a separately-framed bulk region written as one vectored writev, so large
// payloads travel with zero user-space copies.
const ProtoV2 = 2

// FrameMagic is the first byte of every frame header; with the version byte
// that follows it gives corruption a high chance of being caught at the
// frame boundary.
const FrameMagic byte = 0xD6

// --- the frame codec ---
//
// Frame layout (little-endian, 20-byte header):
//
//	byte    magic (FrameMagic)
//	byte    version (ProtoV2)
//	uint16  flags (flagBulk)
//	uint32  metadata length
//	uint32  bulk length
//	int64   logical data bytes
//
// followed by the metadata payload and the bulk region.
const frameHeaderLen = 20

// flagBulk marks a frame carrying a bulk region after the metadata.
const flagBulk uint16 = 1 << 0

// maxFrameLen bounds incoming frames (a corrupted length prefix must not
// cause a giant allocation).
const maxFrameLen = 64 << 20

// vecCoalesceMax is the bulk size up to which a frame is one contiguous
// write: for small payloads copying the bulk behind the header beats the
// scatter bookkeeping of a second vector.
const vecCoalesceMax = 4 << 10

// appendHeader encodes a frame header onto buf.
func appendHeader(buf []byte, metaLen, bulkLen int, data int64) []byte {
	var flags uint16
	if bulkLen > 0 {
		flags |= flagBulk
	}
	buf = append(buf, FrameMagic, byte(ProtoV2))
	buf = binary.LittleEndian.AppendUint16(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(metaLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bulkLen))
	return binary.LittleEndian.AppendUint64(buf, uint64(data))
}

// parseHeader decodes and validates a frameHeaderLen-byte frame header.
// Every rejection wraps ErrFrameCorrupt: a stream that fails here cannot be
// resynchronized.
func parseHeader(hdr []byte) (metaLen, bulkLen int, data int64, err error) {
	if hdr[0] != FrameMagic {
		return 0, 0, 0, fmt.Errorf("%w: bad frame magic 0x%02x", ErrFrameCorrupt, hdr[0])
	}
	if hdr[1] != byte(ProtoV2) {
		return 0, 0, 0, fmt.Errorf("%w: unsupported frame version %d", ErrFrameCorrupt, hdr[1])
	}
	flags := binary.LittleEndian.Uint16(hdr[2:4])
	m := binary.LittleEndian.Uint32(hdr[4:8])
	b := binary.LittleEndian.Uint32(hdr[8:12])
	if m > maxFrameLen || b > maxFrameLen || m+b > maxFrameLen {
		return 0, 0, 0, fmt.Errorf("%w: frame of %d+%d bytes exceeds %d-byte limit", ErrFrameCorrupt, m, b, maxFrameLen)
	}
	if b > 0 && flags&flagBulk == 0 {
		return 0, 0, 0, fmt.Errorf("%w: bulk bytes without bulk flag", ErrFrameCorrupt)
	}
	return int(m), int(b), int64(binary.LittleEndian.Uint64(hdr[12:20])), nil
}

// vecScratch is the pooled state of a two-vector writev. bufs keeps the
// full-capacity slice header so the backing array survives WriteTo (which
// consumes its argument by re-slicing); work is the consumable copy. Both
// live in one heap object so taking their addresses allocates nothing.
type vecScratch struct {
	bufs net.Buffers
	work net.Buffers
}

var vecPool = sync.Pool{New: func() any { return &vecScratch{bufs: make(net.Buffers, 0, 2)} }}

// writeVec writes hdr then bulk as a single vectored write (writev on TCP
// connections; sequential writes elsewhere) without copying either.
func writeVec(w io.Writer, hdr, bulk []byte) error {
	v := vecPool.Get().(*vecScratch)
	v.bufs = append(v.bufs[:0], hdr, bulk)
	v.work = v.bufs
	_, err := v.work.WriteTo(w)
	v.bufs[0], v.bufs[1] = nil, nil
	v.work = nil
	vecPool.Put(v)
	return err
}

// WriteFrame writes one frame — metadata, an optional bulk region and the
// logical data byte count that accompanies the call — with one syscall: a
// bulk above vecCoalesceMax goes out uncopied, as the second vector of a
// writev. bulk is borrowed, never retained: it belongs to the caller again as
// soon as WriteFrame returns. Buffers of every size are pooled, so framing
// does not allocate.
func WriteFrame(w io.Writer, meta, bulk []byte, data int64) error {
	var vec []byte // bulk, when it is too large to copy in behind meta
	if len(bulk) > vecCoalesceMax || frameHeaderLen+len(meta)+len(bulk) > wire.MaxSmallBuf {
		vec, bulk = bulk, nil
	}
	buf := appendHeader(wire.GetBuf(frameHeaderLen+len(meta)+len(bulk)), len(meta), len(vec)+len(bulk), data)
	buf = append(append(buf, meta...), bulk...)
	var err error
	if len(vec) > 0 {
		err = writeVec(w, buf, vec)
	} else {
		_, err = w.Write(buf)
	}
	if err == nil {
		wireTx(int64(len(buf) + len(vec)))
	}
	wire.PutBuf(buf)
	return err
}

// ReadFrame reads one frame. meta is read into
// metaBuf and bulk scatter-read into bulkDst when they fit — the result then
// aliases the buffer, the caller owns both, and nothing is allocated; a
// region that does not fit (or a nil buffer) gets a fresh slice the caller
// may keep for the next frame. Pass reusable buffers only where one reader
// owns the stream. bulk is nil when the frame carries no bulk region. Errors
// are typed connection faults (ErrConnClosed, ErrCallTimeout,
// ErrFrameCorrupt).
func ReadFrame(r io.Reader, metaBuf, bulkDst []byte) (meta, bulk []byte, data int64, err error) {
	return readFrame(r, metaBuf, bulkDst, false)
}

// readFrame is ReadFrame with a choice of where regions that do not fit the
// caller's buffers land. pooled is for a reader that gives its buffers away
// with the request and gets them back from its consumer (wire.PutBuf):
// metadata is read into a buffer of the payload pool, and so is a bulk
// region above wire.MaxSmallBuf — a smaller one into a slice of exactly its
// length. Above wire.MaxSmallBuf the pool is only ever asked for a buffer it
// already has, so on a miss — as for every caller of ReadFrame — the region
// grows as its bytes arrive, for a pooled reader to its class's capacity.
func readFrame(r io.Reader, metaBuf, bulkDst []byte, pooled bool) (meta, bulk []byte, data int64, err error) {
	// The header goes through a pooled buffer: a stack array would escape
	// through the io.Reader interface.
	hdr := wire.GetBuf(frameHeaderLen)[:frameHeaderLen]
	defer wire.PutBuf(hdr)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, nil, 0, wrapReadErr(err)
	}
	metaLen, bulkLen, data, err := parseHeader(hdr)
	if err != nil {
		return nil, nil, 0, err
	}
	if pooled && cap(metaBuf) < metaLen {
		if metaLen <= wire.MaxSmallBuf {
			metaBuf = wire.GetBuf(metaLen)
		} else {
			metaBuf = wire.TakeBuf(metaLen)
		}
	}
	if meta, err = readPayload(r, metaBuf, metaLen, pooled); err != nil {
		return nil, nil, 0, err
	}
	if bulkLen > 0 {
		if pooled && cap(bulkDst) < bulkLen && bulkLen > wire.MaxSmallBuf {
			bulkDst = wire.TakeBuf(bulkLen)
		}
		if bulk, err = readPayload(r, bulkDst, bulkLen, pooled); err != nil {
			return nil, nil, 0, err
		}
	}
	wireRx(int64(len(hdr) + metaLen + bulkLen))
	return meta, bulk, data, nil
}

// readPayload reads n payload bytes, into buf when it fits. Frames up to
// wire.MaxSmallBuf (the steady state) allocate at most once; larger claims
// grow the buffer geometrically as bytes actually arrive, so a corrupted
// length prefix just under maxFrameLen on a truncated stream cannot force
// a 64 MiB up-front allocation. The last step grows to n, or for a pooled
// reader to n's class capacity (wire.ClassCap) — never past twice what
// arrived — so the buffer, given back, serves the next read of n.
func readPayload(r io.Reader, buf []byte, n int, pooled bool) ([]byte, error) {
	if n > cap(buf) && n <= wire.MaxSmallBuf {
		buf = make([]byte, n)
	}
	if n <= cap(buf) {
		out := buf[:n]
		if _, err := io.ReadFull(r, out); err != nil {
			return nil, wrapReadErr(err)
		}
		return out, nil
	}
	end := n
	if pooled {
		end = wire.ClassCap(n)
	}
	buf = make([]byte, 0, wire.MaxSmallBuf)
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(cap(buf)*2, end))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, wrapReadErr(err)
		}
	}
	return buf, nil
}

// wrapReadErr types a raw socket read error: a read deadline becomes
// ErrCallTimeout, anything else — orderly or abrupt peer death — becomes
// ErrConnClosed, so callers can distinguish connection faults from protocol
// bugs without string matching.
func wrapReadErr(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrCallTimeout, err)
	}
	return fmt.Errorf("%w: %v", ErrConnClosed, err)
}

// --- wire statistics ---

// WireStats is a snapshot of protocol-level counters, aggregated over every
// transport in the process: framed streams (the TCP transport, WriteFrame,
// ReadFrame) count where a frame is written or read, the simulated transport
// where a message is sent or received. Counters are atomics because the TCP
// transport runs on real goroutines.
type WireStats struct {
	BytesTx  int64 // wire bytes written (headers + metadata + bulk + modeled payload)
	BytesRx  int64 // wire bytes read
	FramesV1 int64 // always 0; kept until bench/ stops reading it (ROADMAP item 1a)
	FramesV2 int64 // frames sent
}

// Sub returns the element-wise difference s - o, for delta reporting across
// an experiment run.
func (s WireStats) Sub(o WireStats) WireStats {
	return WireStats{
		BytesTx:  s.BytesTx - o.BytesTx,
		BytesRx:  s.BytesRx - o.BytesRx,
		FramesV2: s.FramesV2 - o.FramesV2,
	}
}

var wireStats struct {
	bytesTx, bytesRx, frames atomic.Int64
}

func wireTx(n int64) {
	wireStats.bytesTx.Add(n)
	wireStats.frames.Add(1)
}

func wireRx(n int64) {
	wireStats.bytesRx.Add(n)
}

// SnapshotWireStats returns the process-wide wire counters. Experiments
// snapshot at start and Sub at the end to isolate their own traffic.
func SnapshotWireStats() WireStats {
	return WireStats{
		BytesTx:  wireStats.bytesTx.Load(),
		BytesRx:  wireStats.bytesRx.Load(),
		FramesV2: wireStats.frames.Load(),
	}
}

// PublishWireStats sets the remoting_* counters in reg from a stats delta,
// so experiment summaries and bench reports carry the wire traffic next to
// their domain counters.
func PublishWireStats(reg *metrics.Registry, w WireStats) {
	set := func(name string, v int64) {
		if v < 0 {
			v = 0
		}
		c := reg.Counter(name)
		if d := v - c.Value(); d > 0 {
			c.Add(d)
		}
	}
	set("remoting_bytes_tx", w.BytesTx)
	set("remoting_bytes_rx", w.BytesRx)
	set("remoting_frames", w.FramesV2)
}
