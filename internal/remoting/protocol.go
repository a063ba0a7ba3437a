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

// maxPooledFrame caps the frame buffers retained by the small pool.
const maxPooledFrame = 64 << 10

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

// frame is one encoded message on its way to a writer: a pooled buffer
// holding header + metadata (and a bulk small enough to coalesce), plus —
// above vecCoalesceMax — the caller's bulk slice, borrowed as the second
// vector of one writev so large payloads leave with no user-space copy. The
// borrow ends when writeTo or release returns. The TCP caller builds frames
// on the calling goroutine and writes them on its writer goroutine;
// everything else goes through WriteFrame.
type frame struct {
	buf  []byte
	bulk []byte
}

// newFrame encodes one message.
func newFrame(meta, bulk []byte, data int64) frame {
	n := frameHeaderLen + len(meta)
	coalesce := len(bulk) <= vecCoalesceMax && n+len(bulk) <= maxPooledFrame
	if coalesce {
		n += len(bulk)
	}
	buf := append(appendHeader(getFrameBuf(n), len(meta), len(bulk), data), meta...)
	if coalesce {
		buf = append(buf, bulk...)
		bulk = nil
	}
	return frame{buf: buf, bulk: bulk}
}

// writeTo writes the frame with one Write — one writev when a bulk vector
// rides along — so each frame is one syscall, then counts and releases it.
func (f frame) writeTo(w io.Writer) error {
	var err error
	if len(f.bulk) > 0 {
		err = writeVec(w, f.buf, f.bulk)
	} else {
		_, err = w.Write(f.buf)
	}
	if err == nil {
		wireTx(int64(len(f.buf) + len(f.bulk)))
	}
	f.release()
	return err
}

// release returns the frame's buffer to its pool.
func (f frame) release() { putFrameBuf(f.buf) }

// frameVec is the pooled scratch for a two-vector writev. bufs keeps the
// full-capacity slice header so the backing array survives WriteTo (which
// consumes its argument by re-slicing); work is the consumable copy. Both
// live in one heap object so taking their addresses allocates nothing.
type frameVec struct {
	bufs net.Buffers
	work net.Buffers
}

var vecPool = sync.Pool{New: func() any { return &frameVec{bufs: make(net.Buffers, 0, 2)} }}

// writeVec writes hdr then bulk as a single vectored write (writev on TCP
// connections; sequential writes elsewhere) without copying either.
func writeVec(w io.Writer, hdr, bulk []byte) error {
	v := vecPool.Get().(*frameVec)
	v.bufs = append(v.bufs[:0], hdr, bulk)
	v.work = v.bufs
	_, err := v.work.WriteTo(w)
	v.bufs[0], v.bufs[1] = nil, nil
	v.work = nil
	vecPool.Put(v)
	return err
}

// WriteFrame writes one frame: metadata, an optional bulk region and the
// logical data byte count that accompanies the call. bulk is borrowed, never
// retained: it belongs to the caller again as soon as WriteFrame returns.
// Buffers of every size are pooled, so framing does not allocate.
func WriteFrame(w io.Writer, meta, bulk []byte, data int64) error {
	return newFrame(meta, bulk, data).writeTo(w)
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
// with the request and gets them back from its consumer: metadata of up to
// maxPooledFrame is read into a buffer of the wire payload pool (returned
// with wire.PutBuf), a bulk region into one from the large frame pools
// (RecycleBulk). That pool is only ever asked for a buffer it already has, so
// on a miss — as for every caller of ReadFrame — the region grows as its
// bytes arrive.
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
	if pooled && cap(metaBuf) < metaLen && metaLen <= maxPooledFrame {
		metaBuf = wire.GetBuf(metaLen)
	}
	if meta, err = readPayload(r, metaBuf, metaLen); err != nil {
		return nil, nil, 0, err
	}
	if bulkLen > 0 {
		if pooled && cap(bulkDst) < bulkLen {
			bulkDst = takeFrameBuf(bulkLen)
		}
		if bulk, err = readPayload(r, bulkDst, bulkLen); err != nil {
			return nil, nil, 0, err
		}
	}
	wireRx(int64(len(hdr) + metaLen + bulkLen))
	return meta, bulk, data, nil
}

// readPayload reads n payload bytes, into buf when it fits. Frames up to
// maxPooledFrame (the steady state) allocate at most once; larger claims
// grow the buffer geometrically as bytes actually arrive, so a corrupted
// length prefix just under maxFrameLen on a truncated stream cannot force
// a 64 MiB up-front allocation.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	if n > cap(buf) && n <= maxPooledFrame {
		buf = make([]byte, n)
	}
	if n <= cap(buf) {
		out := buf[:n]
		if _, err := io.ReadFull(r, out); err != nil {
			return nil, wrapReadErr(err)
		}
		return out, nil
	}
	buf = make([]byte, 0, maxPooledFrame)
	for len(buf) < n {
		if len(buf) == cap(buf) {
			newCap := cap(buf) * 2
			if newCap > n {
				newCap = n
			}
			grown := make([]byte, len(buf), newCap)
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(r, buf[len(buf):cap(buf)])
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

// --- size-classed frame pools ---
//
// Frame buffers of up to maxPooledFrame come from the wire payload pool
// (wire.GetBuf), larger ones from the large classes below; either is owned by
// the writer until the write returns.

// largeClassSizes are the capacity classes for frame buffers above
// maxPooledFrame: without them every >64 KiB frame would allocate afresh. Each class carries headroom for the frame
// header so a power-of-two payload does not spill into the next class.
var largeClassSizes = [...]int{
	(256 << 10) + frameHeaderLen + 64,
	(1 << 20) + frameHeaderLen + 64,
	(4 << 20) + frameHeaderLen + 64,
	(16 << 20) + frameHeaderLen + 64,
}

// largeFrameList holds the free buffers of one large class. It is a bounded
// list under a lock, like the wire payload pool's classes and for the same
// reasons: a bulk buffer is handed from one goroutine to another — the
// server's process recycles what a bridge's reader drew — which a sync.Pool's
// per-P caches serve by chance, and the collector empties a sync.Pool, so how
// many megabyte buffers a run allocated afresh differed from run to run.
// What a list keeps the collector never frees: largeClassKeep bytes per
// class, one buffer in the largest.
type largeFrameList struct {
	mu   sync.Mutex
	free [][]byte
}

const largeClassKeep = 8 << 20

var largeFramePools [len(largeClassSizes)]largeFrameList

func (l *largeFrameList) get() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	last := len(l.free) - 1
	if last < 0 {
		return nil
	}
	buf := l.free[last]
	l.free[last] = nil
	l.free = l.free[:last]
	return buf
}

// put files buf under the list of class size, or leaves it to the collector
// when the list is full.
func (l *largeFrameList) put(buf []byte, size int) {
	l.mu.Lock()
	if len(l.free) < max(1, largeClassKeep/size) {
		l.free = append(l.free, buf[:0])
	}
	l.mu.Unlock()
}

// largeClass returns the list and the capacity of the smallest class that
// holds n bytes; nil beyond the largest.
func largeClass(n int) (*largeFrameList, int) {
	for i, size := range largeClassSizes {
		if n <= size {
			return &largeFramePools[i], size
		}
	}
	return nil, 0
}

// getFrameBuf returns an empty pooled buffer with at least n bytes of
// capacity: the wire payload pool up to maxPooledFrame, a size-classed large
// list up to 16 MiB, a fresh allocation beyond (bounded by maxFrameLen).
func getFrameBuf(n int) []byte {
	if n <= maxPooledFrame {
		return wire.GetBuf(n)
	}
	if pool, size := largeClass(n); pool != nil {
		if buf := pool.get(); buf != nil {
			return buf
		}
		n = size
	}
	return make([]byte, 0, n)
}

// takeFrameBuf is getFrameBuf for a reader that has only been told a length
// and will give the buffer away: it returns a buffer of n's large class with
// room for n bytes, or nil, and never allocates on the strength of n. A
// region of up to maxPooledFrame gets nil — read into a fresh slice of
// exactly its length, it is left to the collector — so what the reader gives
// away has a capacity of its length below that and under four times its
// length (plus a header's headroom) above: the ratio between two classes.
func takeFrameBuf(n int) []byte {
	if n <= maxPooledFrame {
		return nil
	}
	pool, _ := largeClass(n)
	if pool == nil {
		return nil
	}
	buf := pool.get()
	if cap(buf) < n {
		// A buffer from the low end of its class is dropped, not put back: the
		// next take would only find it again, and the one grown in its place
		// serves every length of the class.
		return nil
	}
	return buf
}

// putFrameBuf returns a frame buffer to the pool matching its capacity.
func putFrameBuf(buf []byte) {
	if cap(buf) <= maxPooledFrame {
		wire.PutBuf(buf)
	} else if pool, size := largeClass(cap(buf)); pool != nil {
		pool.put(buf, size)
	}
	// Beyond the largest class: drop it, a 64 MiB buffer must not be pinned.
}

// RecycleBulk returns a bulk buffer its owner is done with — a request's
// owned bulk region (Request.BulkOwned), or storage one displaced — to the
// large frame pools, where a bridge's reader draws its next one. The caller
// must hold the only reference. A buffer of up to maxPooledFrame is left to
// the collector: a region that small was read into a slice of its own
// length, not drawn from a pool.
func RecycleBulk(buf []byte) {
	if cap(buf) > maxPooledFrame {
		putFrameBuf(buf)
	}
}

// --- wire statistics ---

// WireStats is a snapshot of protocol-level counters, aggregated over every
// transport in the process (TCP and simulated alike). Counters are atomics
// because the TCP transport runs on real goroutines.
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
