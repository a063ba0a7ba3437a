package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	e := NewEngine(1)
	e.Run("root", func(p *Proc) {
		q := NewQueue[int](e)
		for i := 0; i < 100; i++ {
			q.Send(i)
		}
		for i := 0; i < 100; i++ {
			v, ok := q.Recv(p)
			if !ok || v != i {
				t.Fatalf("Recv #%d = (%d,%v), want (%d,true)", i, v, ok, i)
			}
		}
	})
}

func TestQueueBlocksUntilSend(t *testing.T) {
	e := NewEngine(1)
	var recvAt time.Duration
	e.Run("root", func(p *Proc) {
		q := NewQueue[string](e)
		p.Spawn("producer", func(p *Proc) {
			p.Sleep(5 * time.Second)
			q.Send("hello")
		})
		v, ok := q.Recv(p)
		recvAt = p.Now()
		if !ok || v != "hello" {
			t.Errorf("Recv = (%q,%v)", v, ok)
		}
	})
	if recvAt != 5*time.Second {
		t.Fatalf("received at %v, want 5s", recvAt)
	}
}

func TestQueueRecvTimeout(t *testing.T) {
	e := NewEngine(1)
	e.Run("root", func(p *Proc) {
		q := NewQueue[int](e)
		_, ok, timedOut := q.RecvTimeout(p, time.Second)
		if ok || !timedOut {
			t.Fatalf("RecvTimeout on empty queue = ok=%v timedOut=%v", ok, timedOut)
		}
		if got := p.Now(); got != time.Second {
			t.Fatalf("timeout fired at %v, want 1s", got)
		}
		q.Send(9)
		v, ok, timedOut := q.RecvTimeout(p, time.Second)
		if !ok || timedOut || v != 9 {
			t.Fatalf("RecvTimeout with item = (%d,%v,%v)", v, ok, timedOut)
		}
		if got := p.Now(); got != time.Second {
			t.Fatalf("non-blocking receive advanced time to %v", got)
		}
	})
}

func TestQueueTimeoutThenSendDoesNotLoseItem(t *testing.T) {
	e := NewEngine(1)
	e.Run("root", func(p *Proc) {
		q := NewQueue[int](e)
		_, _, timedOut := q.RecvTimeout(p, time.Second)
		if !timedOut {
			t.Fatal("expected timeout")
		}
		// The timed-out waiter must not swallow this send.
		q.Send(7)
		if v, ok := q.TryRecv(); !ok || v != 7 {
			t.Fatalf("TryRecv = (%d,%v), want (7,true)", v, ok)
		}
	})
}

func TestQueueClose(t *testing.T) {
	e := NewEngine(1)
	e.Run("root", func(p *Proc) {
		q := NewQueue[int](e)
		q.Send(1)
		q.Close()
		if v, ok := q.Recv(p); !ok || v != 1 {
			t.Fatalf("Recv after Close should drain items first, got (%d,%v)", v, ok)
		}
		if _, ok := q.Recv(p); ok {
			t.Fatal("Recv on closed drained queue reported ok")
		}
	})
}

func TestQueueCloseWakesBlockedReceivers(t *testing.T) {
	e := NewEngine(1)
	e.Run("root", func(p *Proc) {
		q := NewQueue[int](e)
		got := NewQueue[bool](e)
		p.Spawn("r", func(p *Proc) {
			_, ok := q.Recv(p)
			got.Send(ok)
		})
		p.Sleep(time.Millisecond)
		q.Close()
		ok, _ := got.Recv(p)
		if ok {
			t.Fatal("blocked receiver saw ok=true after Close")
		}
	})
}

func TestCondWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	e.Run("root", func(p *Proc) {
		c := NewCond(e)
		if !c.WaitTimeout(p, time.Second) {
			t.Fatal("WaitTimeout with no signal should time out")
		}
		if got := p.Now(); got != time.Second {
			t.Fatalf("woke at %v, want 1s", got)
		}
		p.Spawn("signaler", func(p *Proc) {
			p.Sleep(100 * time.Millisecond)
			c.Broadcast()
		})
		if c.WaitTimeout(p, time.Hour) {
			t.Fatal("WaitTimeout reported timeout despite broadcast")
		}
		if got := p.Now(); got != time.Second+100*time.Millisecond {
			t.Fatalf("woke at %v, want 1.1s", got)
		}
	})
}

func TestCondSignalWakesOne(t *testing.T) {
	e := NewEngine(1)
	woken := 0
	e.Run("root", func(p *Proc) {
		c := NewCond(e)
		for i := 0; i < 3; i++ {
			p.Spawn("w", func(p *Proc) {
				c.Wait(p)
				woken++
			})
		}
		p.Sleep(time.Millisecond)
		c.Signal()
		p.Sleep(time.Millisecond)
		if woken != 1 {
			t.Fatalf("after one Signal, woken = %d, want 1", woken)
		}
		c.Broadcast()
	})
	if woken != 3 {
		t.Fatalf("after Broadcast, woken = %d, want 3", woken)
	}
}

// Property: for any set of sleep durations, processes finish in order of
// their durations (ties broken FIFO), and the final virtual time equals the
// maximum duration.
func TestSleepOrderingProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 64 {
			durs = durs[:64]
		}
		e := NewEngine(42)
		type fin struct {
			idx int
			at  time.Duration
		}
		var fins []fin
		e.Run("root", func(p *Proc) {
			wg := NewWaitGroup(e)
			for i, d := range durs {
				i, d := i, time.Duration(d)*time.Microsecond
				wg.Add(1)
				p.Spawn("w", func(p *Proc) {
					p.Sleep(d)
					fins = append(fins, fin{i, p.Now()})
					wg.Done()
				})
			}
			wg.Wait(p)
		})
		var max time.Duration
		for _, d := range durs {
			if dd := time.Duration(d) * time.Microsecond; dd > max {
				max = dd
			}
		}
		if e.Now() != max {
			return false
		}
		for i := 1; i < len(fins); i++ {
			if fins[i].at < fins[i-1].at {
				return false
			}
		}
		// Every process's wake time must equal its requested duration.
		for _, f := range fins {
			if f.at != time.Duration(durs[f.idx])*time.Microsecond {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a queue delivers exactly the multiset of items sent, in FIFO
// order, across any interleaving of producers.
func TestQueueDeliveryProperty(t *testing.T) {
	f := func(items []int16, seed int64) bool {
		e := NewEngine(seed)
		var got []int16
		e.Run("root", func(p *Proc) {
			q := NewQueue[int16](e)
			p.Spawn("producer", func(p *Proc) {
				for _, v := range items {
					p.Sleep(time.Duration(p.Rand().Intn(100)) * time.Microsecond)
					q.Send(v)
				}
				q.Close()
			})
			for {
				v, ok := q.Recv(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		if len(got) != len(items) {
			return false
		}
		for i := range got {
			if got[i] != items[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: two runs of an identical randomized workload produce an
// identical event trace.
func TestDeterministicTraceProperty(t *testing.T) {
	run := func(seed int64) []string {
		e := NewEngine(seed)
		var trace []string
		e.SetTrace(func(now time.Duration, proc, event string) {
			trace = append(trace, now.String()+proc+event)
		})
		e.Run("root", func(p *Proc) {
			q := NewQueue[int](e)
			slots := NewQueue[struct{}](e) // two workers inside at a time
			slots.Send(struct{}{})
			slots.Send(struct{}{})
			wg := NewWaitGroup(e)
			for i := 0; i < 8; i++ {
				wg.Add(1)
				p.Spawn("w", func(p *Proc) {
					defer wg.Done()
					slots.Recv(p)
					p.Sleep(time.Duration(p.Rand().Intn(5000)) * time.Microsecond)
					q.Send(1)
					slots.Send(struct{}{})
				})
			}
			wg.Wait(p)
		})
		return trace
	}
	a, b := run(99), run(99)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestWaitGroupZeroIsImmediate(t *testing.T) {
	e := NewEngine(1)
	e.Run("root", func(p *Proc) {
		wg := NewWaitGroup(e)
		wg.Wait(p) // must not block
		if got := p.Now(); got != 0 {
			t.Fatalf("Wait on empty group advanced time to %v", got)
		}
	})
}
