package guest

import (
	"bytes"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dgsf/internal/cuda"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// deferLaunches defers n launches on lib and flushes them as one batch.
func deferLaunches(p *sim.Proc, lib *Lib, n int, lp cuda.LaunchParams) {
	for i := 0; i < n; i++ {
		_ = lib.LaunchKernel(p, lp)
	}
	lib.FlushBatch(p)
}

// drainBatches empties the free list of batches, so that a test sees only
// what it returns itself.
func drainBatches() {
	batches.mu.Lock()
	defer batches.mu.Unlock()
	clear(batches.free[:])
	batches.n, batches.bytes = 0, 0
}

// freeBatches returns the batches the free list holds.
func freeBatches() []*batch {
	batches.mu.Lock()
	defer batches.mu.Unlock()
	return append([]*batch(nil), batches.free[:batches.n]...)
}

// heldFault is a transport whose round trips die of a connection fault while
// it keeps every request it was given, as one still sending it may.
type heldFault struct{ held [][]byte }

func (c *heldFault) Roundtrip(_ *sim.Proc, req []byte, _ int64) ([]byte, error) {
	c.held = append(c.held, req)
	return nil, remoting.ErrConnClosed
}
func (c *heldFault) Close() {}

// TestFaultedBatchBytesNeverReused: a batch's storage is shared by every
// library through the free list, so the encoder bytes of a flush whose round
// trip died of a connection fault must never rejoin it — or the next batch
// would be encoded over a request the transport may still be sending. The
// storage itself does come back, with no op that keeps the application's
// Mutates slice reachable. A recoverable library's retry encodes into fresh
// bytes, and those rejoin the list once the retry succeeds.
func TestFaultedBatchBytesNeverReused(t *testing.T) {
	mutates := []cuda.DevPtr{0x1000, 0x2000}
	lp := cuda.LaunchParams{Fn: 1, Grid: [3]int{8, 1, 1}, Block: [3]int{64, 1, 1}, Duration: time.Microsecond, Mutates: mutates}
	check := func(t *testing.T, held []byte) {
		t.Helper()
		free := freeBatches()
		if len(free) != 1 {
			t.Fatalf("free list holds %d batches after the flush, want 1", len(free))
		}
		b := free[0]
		if enc := b.enc.Bytes(); cap(enc) > 0 && unsafe.SliceData(enc[:1]) == unsafe.SliceData(held) {
			t.Fatal("the faulted request's bytes went back to the free list")
		}
		for i, o := range b.ops[:cap(b.ops)] {
			if o.lp.Mutates != nil {
				t.Fatalf("returned batch's op %d still references a Mutates slice", i)
			}
		}
	}
	t.Run("plain", func(t *testing.T) {
		drainBatches()
		sim.NewEngine(1).Run("root", func(p *sim.Proc) {
			conn := &heldFault{}
			lib := New(conn, OptAll)
			deferLaunches(p, lib, 64, lp)
			if len(conn.held) != 1 {
				t.Fatalf("%d round trips, want 1", len(conn.held))
			}
			if code, _ := lib.GetLastError(p); code == 0 {
				t.Fatal("the faulted flush left no error behind")
			}
			held := conn.held[0]
			sent := bytes.Clone(held)
			check(t, held)
			// The next library's batch, of other calls, leaves the held
			// request as it was sent.
			deferLaunches(p, New(&fixedReply{}, OptAll), 100, benchLaunch)
			if !bytes.Equal(held, sent) {
				t.Fatal("a later batch was encoded over the faulted request")
			}
		})
	})
	t.Run("recoverable", func(t *testing.T) {
		drainBatches()
		sim.NewEngine(1).Run("root", func(p *sim.Proc) {
			conn := &heldFault{}
			rc := RecoveryConfig{
				Redial:      func(*sim.Proc) (remoting.Caller, error) { return &fixedReply{}, nil },
				MaxAttempts: 1,
			}
			lib := NewRecoverable(conn, OptAll, rc)
			deferLaunches(p, lib, 64, lp)
			if len(conn.held) != 1 {
				t.Fatalf("%d round trips on the faulted conn, want 1", len(conn.held))
			}
			if st := lib.Stats(); st.Recoveries != 1 {
				t.Fatalf("%d recoveries, want 1", st.Recoveries)
			}
			if code, _ := lib.GetLastError(p); code != 0 {
				t.Fatalf("the retried flush left error %d", code)
			}
			check(t, conn.held[0])
			if cap(freeBatches()[0].enc.Bytes()) == 0 {
				t.Fatal("the retry's encoder bytes did not rejoin the free list")
			}
		})
	})
	drainBatches()
}

// TestFreshLibBatchAllocatesNothing: once one library has flushed a batch as
// large, a fresh library's 512 deferred launches and their flush allocate
// nothing — the ops slice and the batch's encoder come from the free list.
func TestFreshLibBatchAllocatesNothing(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	const launches, runs = 512, 20
	sim.NewEngine(1).Run("root", func(p *sim.Proc) {
		conn := &fixedReply{}
		deferLaunches(p, New(conn, OptAll), launches, benchLaunch)
		// AllocsPerRun calls the function once more, unmeasured, first.
		libs := make([]*Lib, runs+1)
		for i := range libs {
			libs[i] = New(conn, OptAll)
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			deferLaunches(p, libs[next], launches, benchLaunch)
			next++
		})
		if allocs != 0 {
			t.Errorf("a fresh library's %d-launch batch made %v allocations, want 0", launches, allocs)
		}
	})
}

// TestBatchFreeListSharedByEngines: engines on separate goroutines share the
// free list; what it holds afterwards stays within its bounds, and its byte
// count is the sum of what its batches keep.
func TestBatchFreeListSharedByEngines(t *testing.T) {
	drainBatches()
	defer drainBatches()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sim.NewEngine(int64(g)).Run("root", func(p *sim.Proc) {
				for i := 0; i < 20; i++ {
					deferLaunches(p, New(&fixedReply{}, OptAll), 1+(g*37+i*101)%700, benchLaunch)
				}
			})
		}(g)
	}
	wg.Wait()
	free := freeBatches()
	sum := 0
	for _, b := range free {
		if len(b.ops) != 0 {
			t.Fatalf("a free batch holds %d ops", len(b.ops))
		}
		sum += b.size()
	}
	batches.mu.Lock()
	counted := batches.bytes
	batches.mu.Unlock()
	if len(free) == 0 || len(free) > maxFreeBatches || sum != counted || counted > maxFreeBatchBytes {
		t.Fatalf("free list: %d batches keeping %d B, counted %d B; bounds %d and %d B", len(free), sum, counted, maxFreeBatches, maxFreeBatchBytes)
	}
}
