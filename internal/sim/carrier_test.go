package sim

import (
	"errors"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

func idleCarriers() int {
	carriers.Lock()
	defer carriers.Unlock()
	return len(carriers.idle)
}

// TestCarrierPoolIsCapped runs more processes at once than the free list
// keeps: when they exit, the list fills to its cap and the carriers beyond
// it end their goroutines.
func TestCarrierPoolIsCapped(t *testing.T) {
	before, idleBefore := runtime.NumGoroutine(), idleCarriers()
	NewEngine(1).Run("root", func(p *Proc) {
		c := NewCond(p.Engine())
		for i := 0; i < maxIdleCarriers+8; i++ {
			p.Spawn("waiter", func(p *Proc) { c.Wait(p) })
		}
		p.Yield() // every waiter is on a carrier of its own
		c.Broadcast()
	})
	idle := idleCarriers()
	if idle != maxIdleCarriers {
		t.Fatalf("%d idle carriers, want the cap, %d", idle, maxIdleCarriers)
	}
	if n := settledGoroutines(before + idle - idleBefore); n > before+idle-idleBefore {
		t.Fatalf("%d goroutines, %d before plus %d new idle carriers: carriers beyond the cap kept running", n, before, idle-idleBefore)
	}
}

// TestCarrierReusedAcrossEngines: the carrier a process exits from runs the
// next process spawned, on another engine too, and taking it allocates
// nothing.
func TestCarrierReusedAcrossEngines(t *testing.T) {
	var first, second *carrier
	NewEngine(1).Run("a", func(p *Proc) { first = p.c })
	NewEngine(2).Run("b", func(p *Proc) { second = p.c })
	if first != second {
		t.Fatal("the second engine's root did not run on the carrier the first engine's root exited from")
	}
	if allocs := testing.AllocsPerRun(100, func() { putCarrier(takeCarrier()) }); allocs != 0 {
		t.Errorf("taking and returning an idle carrier: %v allocs, want 0", allocs)
	}
	run := func() { NewEngine(1).Run("root", func(*Proc) {}) }
	if allocs := testing.AllocsPerRun(100, run); allocs != 2 {
		t.Errorf("an engine running one process: %v allocs, want 2 (the Engine and the Proc)", allocs)
	}
}

// TestStopEndsOpenHub: an open engine's hub goroutine ends once Stop has
// killed its processes, leaving only idle carriers behind.
func TestStopEndsOpenHub(t *testing.T) {
	before, idleBefore := runtime.NumGoroutine(), idleCarriers()
	e := NewOpenEngine(1)
	q := NewQueue[int](e)
	done := e.Inject("stuck", func(p *Proc) { q.Recv(p) })
	waitIdle(e)
	e.Stop()
	<-done
	// The killed process's carrier may reach the free list after done
	// closes, so the limit is re-read on every pass.
	deadline := time.Now().Add(5 * time.Second)
	for {
		idle := idleCarriers() - idleBefore
		n := runtime.NumGoroutine()
		if n <= before+idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, %d before plus %d new idle carriers: the hub is still running", n, before, idle)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOpenAtFromOutsideFires: a callback armed by a post into an idle open
// engine is work for its hub, which fires it with nothing else to wake it.
func TestOpenAtFromOutsideFires(t *testing.T) {
	e := NewOpenEngine(1)
	defer e.Stop()
	<-e.Inject("first", func(*Proc) {})
	waitIdle(e)
	fired := make(chan time.Duration, 1)
	e.Post(func() { e.At(time.Second, func() { fired <- e.Now() }) })
	select {
	case at := <-fired:
		if at != time.Second {
			t.Fatalf("fired at %v, want 1s", at)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a callback armed from outside never fired")
	}
}

// TestGoexitInOpenProcessKeepsHub: a process that calls runtime.Goexit (a
// t.Fatal) in an open engine exits — its Inject channel closes — and the
// engine goes on serving.
func TestGoexitInOpenProcessKeepsHub(t *testing.T) {
	e := NewOpenEngine(1)
	defer e.Stop()
	for _, step := range []struct {
		name string
		fn   func(p *Proc)
	}{
		{"quits", func(p *Proc) { p.Sleep(time.Second); runtime.Goexit() }},
		{"after", func(p *Proc) { p.Sleep(time.Second) }},
	} {
		select {
		case <-e.Inject(step.name, step.fn):
		case <-time.After(5 * time.Second):
			t.Fatalf("process %q never exited", step.name)
		}
	}
	if got := e.Now(); got != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", got)
	}
}

//go:noinline
func explode(err error) { panic(err) }

// TestProcessPanicReachesRunCaller: a panic in process code comes out of Run
// as a *ProcPanic naming the process, wrapping the value, and holding the
// stack the panic was raised on.
func TestProcessPanicReachesRunCaller(t *testing.T) {
	boom := errors.New("boom")
	var got any
	func() {
		defer func() { got = recover() }()
		NewEngine(1).Run("root", func(p *Proc) {
			p.Spawn("faulty", func(p *Proc) {
				p.Sleep(time.Millisecond)
				explode(boom)
			})
			p.Sleep(time.Second)
		})
	}()
	pp, ok := got.(*ProcPanic)
	if !ok {
		t.Fatalf("Run raised %T %v, want a *ProcPanic", got, got)
	}
	if pp.Proc != "faulty" || !errors.Is(pp, boom) {
		t.Errorf("ProcPanic{Proc: %q, Value: %v}, want faulty and boom", pp.Proc, pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "sim.explode") {
		t.Errorf("the stack does not show where the panic was raised:\n%s", pp.Stack)
	}
	if msg := pp.Error(); !strings.Contains(msg, `"faulty"`) || !strings.Contains(msg, "sim.explode") {
		t.Errorf("Error() = %q, want the process's name and stack", msg)
	}
}

// TestFatalInProcessEndsTest runs itself in a child test binary, where a
// process body calls t.Fatal: the runtime.Goexit goes on from the process
// through the loop to Run's caller, so the child's test fails there, as a
// t.Fatal on the test goroutine does, and Run does not return.
func TestFatalInProcessEndsTest(t *testing.T) {
	if os.Getenv("SIM_FATAL_IN_PROCESS") == "1" {
		NewEngine(1).Run("root", func(p *Proc) {
			p.Sleep(time.Millisecond)
			t.Fatal("fatal inside a process")
		})
		t.Log("Run returned")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFatalInProcessEndsTest$", "-test.v")
	cmd.Env = append(os.Environ(), "SIM_FATAL_IN_PROCESS=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("the child test passed:\n%s", out)
	}
	for _, want := range []string{"fatal inside a process", "--- FAIL: TestFatalInProcessEndsTest"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("child output lacks %q:\n%s", want, out)
		}
	}
	for _, bad := range []string{"Run returned", "panic"} {
		if strings.Contains(string(out), bad) {
			t.Errorf("child output has %q:\n%s", bad, out)
		}
	}
}
