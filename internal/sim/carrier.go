package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
	"sync"
)

// A carrier is a coroutine that runs process bodies, one after another. The
// loop hands it a process and resumes it; the process's park yields back to
// the loop; once the body returns, or unwinds from a kill, the carrier
// yields true and waits, idle, for its next process. A switch between the
// loop and a carrier is a direct coroutine switch, not a trip through the Go
// scheduler, and a spawn takes an idle carrier instead of a new goroutine.
type carrier struct {
	p     *Proc               // the process it runs; nil while idle
	next  func() (bool, bool) // resumes it; reports whether its process exited
	stop  func()              // ends an idle carrier's coroutine
	yield func(bool) bool
}

// maxIdleCarriers caps the free list. It covers the peak number of live
// processes of the benchmark workloads (fleet_flood 144, paper_mix 44); a
// carrier that finds the list full is stopped, and its goroutine ends.
const maxIdleCarriers = 256

// carriers is the free list of idle carriers, shared by every engine: a
// process that exits hands its carrier on to the next one spawned anywhere.
var carriers struct {
	sync.Mutex
	idle []*carrier
}

func takeCarrier() *carrier {
	carriers.Lock()
	if n := len(carriers.idle); n > 0 {
		c := carriers.idle[n-1]
		carriers.idle[n-1] = nil
		carriers.idle = carriers.idle[:n-1]
		carriers.Unlock()
		return c
	}
	carriers.Unlock()
	c := new(carrier)
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

func putCarrier(c *carrier) {
	carriers.Lock()
	if len(carriers.idle) < maxIdleCarriers {
		carriers.idle = append(carriers.idle, c)
		carriers.Unlock()
		return
	}
	carriers.Unlock()
	c.stop()
}

func (c *carrier) loop(yield func(bool) bool) {
	c.yield = yield
	for {
		c.run(c.p)
		c.p = nil // an idle carrier keeps no process, or its engine, reachable
		if !yield(true) {
			return
		}
	}
}

// run runs p's body and retires p. A kill's errKilled ends here. Any other
// panic goes on through the loop to whoever runs it, wrapped in a ProcPanic:
// the coroutine re-raises a panic without the stack it was raised on. A
// runtime.Goexit (a t.Fatal in the body) retires p and goes on through the
// loop too, ending the loop's goroutine.
func (c *carrier) run(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); !ok || !errors.Is(err, errKilled) {
				panic(&ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
			}
		}
		e := p.e
		e.mu.Lock()
		e.exitLocked(p)
		e.mu.Unlock()
	}()
	p.fn(p)
}

// ProcPanic is a panic raised in process code, as Engine.Run (or, in open
// mode, the hub goroutine) re-raises it.
type ProcPanic struct {
	Proc  string // the name of the process that panicked
	Value any    // what it panicked with
	Stack []byte // its stack at the panic
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n\n%s", pp.Proc, pp.Value, pp.Stack)
}

// Unwrap returns the panic value if it is an error.
func (pp *ProcPanic) Unwrap() error {
	err, _ := pp.Value.(error)
	return err
}
