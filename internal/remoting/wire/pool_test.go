package wire

import (
	"sync"
	"testing"
	"unsafe"
)

func TestBufClasses(t *testing.T) {
	for _, c := range []struct{ n, wantCap int }{
		{-1, 8}, {0, 8}, {4, 8}, {8, 8}, {9, 16}, {88, 128}, {128, 128}, {129, 256},
		{maxPooledBuf - 1, maxPooledBuf}, {maxPooledBuf, maxPooledBuf}, {maxPooledBuf + 1, maxPooledBuf + 1},
	} {
		b := GetBuf(c.n)
		if len(b) != 0 || cap(b) != c.wantCap {
			t.Errorf("GetBuf(%d): len %d cap %d, want 0 and %d", c.n, len(b), cap(b), c.wantCap)
		}
		PutBuf(b)
	}
	// A buffer the pool never saw is filed under the largest class it can
	// serve; one too small or too large is dropped.
	odd := make([]byte, 0, 100)
	PutBuf(odd)
	if got := GetBuf(64); unsafe.SliceData(got) != unsafe.SliceData(odd) || cap(got) != 64 {
		t.Errorf("a 100-byte buffer did not come back as the 64-byte class's (cap %d)", cap(got))
	}
	PutBuf(make([]byte, 0, 7))
	PutBuf(make([]byte, 0, maxPooledBuf+1))
	PutBuf(nil)
}

// TestBufRoundTripAllocatesNothing: the steady state of a message — take a
// buffer, fill it, hand it on, give it back — costs no allocation, in bursts
// as deep as a pipelined guest's window.
func TestBufRoundTripAllocatesNothing(t *testing.T) {
	if RaceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	msg := make([]byte, 88)
	held := make([][]byte, 0, 512)
	burst := func() {
		for i := 0; i < cap(held); i++ {
			held = append(held, append(GetBuf(len(msg)), msg...))
		}
		for _, b := range held {
			PutBuf(b)
		}
		held = held[:0]
	}
	burst()
	if avg := testing.AllocsPerRun(20, burst); avg != 0 {
		t.Fatalf("a burst of 512 pooled messages allocates %.0f times, want 0", avg)
	}
}

// TestBufPoolConcurrent hands buffers between goroutines the way a bridge
// does — one side takes and fills, the other checks and returns — for the
// race detector, and checks no message is ever seen changed.
func TestBufPoolConcurrent(t *testing.T) {
	const producers, perProducer = 4, 2000
	ch := make(chan []byte, 64)
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(tag byte) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				b := GetBuf(24)
				for j := 0; j < 24; j++ {
					b = append(b, tag)
				}
				ch <- b
			}
		}(byte(g + 1))
	}
	go func() { wg.Wait(); close(ch) }()
	for b := range ch {
		for _, c := range b {
			if c != b[0] {
				t.Fatalf("a message changed in flight: %v", b)
			}
		}
		PutBuf(b)
	}
}

func TestCheckPoolPoisonsAndCountsDoubleReturns(t *testing.T) {
	CheckPool(true)
	b := append(GetBuf(16), "sixteen bytes..."...)
	PutBuf(b)
	for i, c := range b[:cap(b)] {
		if c != poolPoison {
			t.Fatalf("byte %d of a returned buffer reads %#x, want the poison", i, c)
		}
	}
	if again := GetBuf(16); unsafe.SliceData(again) == unsafe.SliceData(b) {
		t.Error("a returned buffer was handed out again in checking mode")
	}
	PutBuf(b)
	PutBuf(b[:4])
	if n := CheckPool(false); n != 2 {
		t.Errorf("CheckPool counted %d double returns, want 2", n)
	}
	if n := CheckPool(false); n != 0 {
		t.Errorf("the count did not reset: %d", n)
	}
	// Out of checking mode the pool reuses again.
	c := GetBuf(16)
	PutBuf(c)
	if d := GetBuf(16); unsafe.SliceData(d) != unsafe.SliceData(c) {
		t.Error("the pool does not reuse a returned buffer after checking mode ended")
	}
}
