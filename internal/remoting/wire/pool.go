package wire

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The payload pool: byte buffers for the small encoded messages that change
// hands on the remoting path — a one-way submission on its way to the API
// server, a reply on its way back, a request payload a bridge read off a
// socket. The rule is the bulk region's: whoever consumes a payload returns
// it. GetBuf's result belongs to the caller alone until it is handed on
// (AsyncCaller.Submit takes its request, a Response marked Pooled carries its
// payload to Response.Release) or given back with PutBuf, once, by its last
// holder, who keeps no reference to it. A holder that never returns one — a
// message dropped on a dead wire, a crashed server, a test double — costs the
// collector a buffer, never safety.
//
// Buffers come in power-of-two capacity classes from 8 bytes (a status-only
// reply) to maxPooledBuf, so a connection used for five calls draws 8- and
// 128-byte buffers, not the largest message's size for each. Each class is a
// small free list under a lock rather than a sync.Pool: the usual hand-over
// is between goroutines — a bridge's reader takes what the server's process
// returns — which per-P caches serve badly, and a list the collector does not
// empty makes the path's allocation count repeat from run to run. What the
// lists can hold is bounded per class by count and by bytes.
const (
	minBufShift = 3
	maxBufShift = 16 // 1<<16 == maxPooledBuf

	// What a class keeps. A pipelined guest has up to its whole window of
	// one-way messages (guest.maxAsyncWindow, 512) in flight, and they come
	// back in one burst.
	maxFreeBufs  = 1024
	maxFreeBytes = 256 << 10
)

// bufClass holds the free buffers of one capacity, as pointers to their first
// bytes.
type bufClass struct {
	mu   sync.Mutex
	free []unsafe.Pointer
}

var bufClasses [maxBufShift - minBufShift + 1]bufClass

// GetBuf returns an empty buffer with room for n bytes, from the pool when n
// is at most maxPooledBuf. Append to it; a buffer grown past its capacity is
// a new one the pool never saw, and PutBuf takes that too.
func GetBuf(n int) []byte {
	if n > maxPooledBuf {
		return make([]byte, 0, n)
	}
	shift := minBufShift
	if n > 1<<minBufShift {
		shift = bits.Len(uint(n - 1))
	}
	c := &bufClasses[shift-minBufShift]
	c.mu.Lock()
	if last := len(c.free) - 1; last >= 0 {
		p := c.free[last]
		c.free[last] = nil
		c.free = c.free[:last]
		c.mu.Unlock()
		return unsafe.Slice((*byte)(p), 1<<shift)[:0]
	}
	c.mu.Unlock()
	return make([]byte, 0, 1<<shift)
}

// PutBuf gives b back. The caller must hold the only reference and use
// neither b nor anything aliasing it — a shared decode's strings, a batch
// entry's view — afterwards. Buffers too small or too large for a class are
// left to the collector, as is one whose class is full; any other is filed
// under the largest class it can serve, whether or not it came from GetBuf.
func PutBuf(b []byte) {
	n := cap(b)
	if n < 1<<minBufShift || n > maxPooledBuf {
		return
	}
	shift := bits.Len(uint(n)) - 1
	p := unsafe.Pointer(unsafe.SliceData(b))
	c := &bufClasses[shift-minBufShift]
	if poolChecks.Load() {
		quarantine(p, 1<<shift)
		return
	}
	c.mu.Lock()
	if len(c.free) < maxFreeBufs && (len(c.free)+1)<<shift <= maxFreeBytes {
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
		doubles int
	}
)

const (
	poolPoison      = 0xDB
	maxReturnedBufs = 1 << 16 // beyond it the set starts over: a test's memory stays bounded
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
	returned.bufs = nil
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
	if returned.bufs == nil || len(returned.bufs) >= maxReturnedBufs {
		returned.bufs = make(map[unsafe.Pointer]struct{})
	}
	returned.bufs[p] = struct{}{}
	for i, b := 0, unsafe.Slice((*byte)(p), n); i < n; i++ {
		b[i] = poolPoison
	}
}
