package wire

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The payload pool: the remoting path's byte buffers — a one-way submission
// on its way to the API server, a reply on its way back, a frame on its way
// to a socket, a request payload or bulk region a bridge read off one.
// Whoever consumes a buffer returns it. GetBuf's result belongs to the caller
// alone until it is handed on (AsyncCaller.Submit takes its request, a
// Response marked Pooled carries its payload to Response.Release) or given
// back with PutBuf, once, by its last holder, who keeps no reference to it.
// A holder that never returns one — a message dropped on a dead wire, a
// crashed server, a test double — costs the collector a buffer, never
// safety.
//
// Buffers come in power-of-two capacity classes from 8 bytes (a status-only
// reply) to 16 MiB (a bulk region), so a connection used for five calls
// draws 8- and 128-byte buffers, not the largest message's size for each. A
// buffer is filed under the class below its capacity and a request served
// from the class at or above its length, so whatever a class hands out fits.
// Each class is a small free list under a lock rather than a sync.Pool: the
// usual hand-over is between goroutines — a bridge's reader takes what the
// server's process returns — which per-P caches serve badly, and a list the
// collector does not empty makes the path's allocation count repeat from run
// to run. What a class keeps is bounded by count and by class bytes, and is
// at least one buffer: 256 KiB in each class from 256 bytes to MaxSmallBuf,
// 2 MiB in each from 128 KiB to 2 MiB, one buffer above — 41 464 KiB of
// class capacity in all.
const (
	minBufShift = 3
	maxBufShift = 24 // 16 MiB
	maxBuf      = 1 << maxBufShift

	// What a class keeps. A pipelined guest has up to its whole window of
	// one-way messages (guest.maxAsyncWindow, 512) in flight, and they come
	// back in one burst. A bulk class above MaxSmallBuf keeps the region a
	// write brings in and the one it displaces.
	maxFreeBufs      = 1024
	maxFreeBytes     = 256 << 10
	maxFreeBulkBytes = 2 << 20
)

// bufClass holds the free buffers of one capacity, as pointers to their first
// bytes.
type bufClass struct {
	mu   sync.Mutex
	free []unsafe.Pointer
}

var bufClasses [maxBufShift - minBufShift + 1]bufClass

// ceilShift returns the shift of the smallest class that holds n bytes.
func ceilShift(n int) int {
	if n <= 1<<minBufShift {
		return minBufShift
	}
	return bits.Len(uint(n - 1))
}

// GetBuf returns an empty buffer with room for n bytes, from the pool when n
// is at most 16 MiB. Append to it; a buffer grown past its capacity is a new
// one the pool never saw, and PutBuf takes that too.
func GetBuf(n int) []byte {
	if b := TakeBuf(n); b != nil {
		return b
	}
	return make([]byte, 0, ClassCap(n))
}

// TakeBuf is GetBuf for a reader that has only been told a length: it
// returns a buffer the pool already has, with room for n bytes, or nil, and
// never allocates on the strength of n.
func TakeBuf(n int) []byte {
	if n > maxBuf {
		return nil
	}
	shift := ceilShift(n)
	c := &bufClasses[shift-minBufShift]
	c.mu.Lock()
	last := len(c.free) - 1
	if last < 0 {
		c.mu.Unlock()
		return nil
	}
	p := c.free[last]
	c.free[last] = nil
	c.free = c.free[:last]
	c.mu.Unlock()
	return unsafe.Slice((*byte)(p), 1<<shift)[:0]
}

// ClassCap returns the capacity of the buffer GetBuf(n) returns: that of n's
// class, or n beyond the largest. A buffer of n's class capacity, grown on a
// pool miss and given back, serves the next request for n.
func ClassCap(n int) int {
	if n > maxBuf {
		return n
	}
	return 1 << ceilShift(n)
}

// PutBuf gives b back. The caller must hold the only reference and use
// neither b nor anything aliasing it — a shared decode's strings, a batch
// entry's view — afterwards. Buffers too small or too large for a class are
// left to the collector, as is one whose class is full; any other is filed
// under the largest class it can serve, whether or not it came from GetBuf.
func PutBuf(b []byte) {
	n := cap(b)
	if n < 1<<minBufShift || n > maxBuf {
		return
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if poolChecks.Load() {
		quarantine(p, n)
		return
	}
	shift := bits.Len(uint(n)) - 1
	c := &bufClasses[shift-minBufShift]
	budget := maxFreeBytes
	if 1<<shift > MaxSmallBuf {
		budget = maxFreeBulkBytes
	}
	c.mu.Lock()
	if k := len(c.free); k == 0 || k < maxFreeBufs && (k+1)<<shift <= budget {
		c.free = append(c.free, p)
	}
	c.mu.Unlock()
}

// --- the pool's checking mode (tests) ---

// In checking mode the pool is a use-after-return oracle: a returned buffer
// is overwritten with poolPoison and never handed out again, so a stale
// reader decodes garbage — not its old bytes, not another message's — and a
// second return of the same buffer is recognised and counted.
var (
	poolChecks atomic.Bool
	returned   struct {
		mu      sync.Mutex
		bufs    map[unsafe.Pointer]struct{} // keeps each buffer, and so its address, from being reallocated
		bytes   int                         // their capacity
		doubles int
	}
)

const (
	poolPoison = 0xDB
	// Beyond either bound the set starts over: a test's memory stays bounded.
	maxReturnedBufs  = 1 << 16
	maxReturnedBytes = 64 << 20
)

// CheckPool switches the payload pool's checking mode on or off and returns
// the number of double returns seen since it was last switched. For tests:
//
//	wire.CheckPool(true)
//	defer func() { if n := wire.CheckPool(false); n != 0 { t.Errorf(...) } }()
//
// The mode is process-wide; tests that use it do not run in parallel.
func CheckPool(on bool) (doubleReturns int) {
	returned.mu.Lock()
	defer returned.mu.Unlock()
	doubleReturns, returned.doubles = returned.doubles, 0
	returned.bufs, returned.bytes = nil, 0
	poolChecks.Store(on)
	return doubleReturns
}

func quarantine(p unsafe.Pointer, n int) {
	returned.mu.Lock()
	defer returned.mu.Unlock()
	if _, dup := returned.bufs[p]; dup {
		returned.doubles++
		return
	}
	if returned.bufs == nil || len(returned.bufs) >= maxReturnedBufs || returned.bytes+n > maxReturnedBytes {
		returned.bufs = make(map[unsafe.Pointer]struct{})
		returned.bytes = 0
	}
	returned.bufs[p] = struct{}{}
	returned.bytes += n
	for i, b := 0, unsafe.Slice((*byte)(p), n); i < n; i++ {
		b[i] = poolPoison
	}
}
