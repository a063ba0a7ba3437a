// Package lockt exercises the lockorder analyzer: re-entrant locking, lock
// order cycles (direct and through one level of calls), and remoting
// roundtrips or channel sends while a lock is held.
package lockt

import (
	"sync"

	"g/internal/remoting"
	"g/internal/sim"
)

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }
type C struct{ mu sync.Mutex }
type D struct{ mu sync.Mutex }
type E struct{ mu sync.Mutex }
type F struct{ mu sync.Mutex }
type P struct{ mu sync.Mutex }

type S struct {
	mu     sync.RWMutex
	events chan int
	out    chan int
}

func newS() *S {
	return &S{out: make(chan int, 8), events: make(chan int)}
}

var gmu sync.Mutex
var gmu2 sync.Mutex

// --- positives ---

type bufClass struct{ mu sync.Mutex }

type quarantineSet struct{ mu sync.Mutex }

var (
	classes  [4]bufClass
	returned quarantineSet
)

func quarantine() {
	returned.mu.Lock()
	defer returned.mu.Unlock()
}

// The headline case, planted in the wire payload pool: in checking mode a
// return quarantines the buffer under its class lock, and switching checking
// mode empties every class under the quarantine lock. A test that switches
// modes while a connection's reader still returns a buffer deadlocks, and
// only then: no tier-1 run did.
func putBuf(c *bufClass) {
	c.mu.Lock()
	quarantine() // want "lock order cycle bufClass.mu -> quarantineSet.mu -> bufClass.mu"
	c.mu.Unlock()
}

func checkPool() {
	returned.mu.Lock()
	defer returned.mu.Unlock()
	for i := range classes {
		c := &classes[i]
		c.mu.Lock() // want "lock order cycle quarantineSet.mu -> bufClass.mu -> quarantineSet.mu"
		c.mu.Unlock()
	}
}

// A mutex in a package-level variable of anonymous struct type, like the
// payload pool's quarantine set or the guest's batch free list, is keyed by
// package, variable and field path, and so takes part in cycles.
var freeList struct {
	mu sync.Mutex
	n  int
}

type G struct{ mu sync.Mutex }

func refill(g *G) {
	g.mu.Lock()
	freeList.mu.Lock() // want "lock order cycle G.mu -> lockt.freeList.mu -> G.mu"
	freeList.n++
	freeList.mu.Unlock()
	g.mu.Unlock()
}

func drain(g *G) {
	freeList.mu.Lock()
	g.mu.Lock() // want "lock order cycle lockt.freeList.mu -> G.mu -> lockt.freeList.mu"
	freeList.n--
	g.mu.Unlock()
	freeList.mu.Unlock()
}

func reentrant(a *A) {
	a.mu.Lock()
	a.mu.Lock() // want "A.mu is locked again while already held"
	a.mu.Unlock()
	a.mu.Unlock()
}

func reentrantGlobal() {
	gmu.Lock()
	gmu.Lock() // want "gmu is locked again while already held"
	gmu.Unlock()
	gmu.Unlock()
}

func lockAB(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want "lock order cycle A.mu -> B.mu -> A.mu"
	defer b.mu.Unlock()
}

func lockBA(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock() // want "lock order cycle B.mu -> A.mu -> B.mu"
	defer a.mu.Unlock()
}

func lockD(d *D) {
	d.mu.Lock()
	defer d.mu.Unlock()
}

// The C -> D edge flows through the helper's one-level summary.
func lockCthenHelper(c *C, d *D) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lockD(d) // want "lock order cycle C.mu -> D.mu -> C.mu"
}

func lockDthenC(c *C, d *D) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c.mu.Lock() // want "lock order cycle D.mu -> C.mu -> D.mu"
	defer c.mu.Unlock()
}

func helperP(p *P) {
	p.mu.Lock()
	defer p.mu.Unlock()
}

func lockPtwiceViaHelper(p *P) {
	p.mu.Lock()
	defer p.mu.Unlock()
	helperP(p) // want "call to helperP acquires P.mu, which is already held"
}

func roundtripHeld(s *S, c *remoting.Caller, pr *sim.Proc, req []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Roundtrip(pr, req, 0) // want "remoting roundtrip Roundtrip while S.mu is held"
}

func flush(c *remoting.Caller, pr *sim.Proc) {
	c.Roundtrip(pr, nil, 0)
}

func roundtripViaHelper(s *S, c *remoting.Caller, pr *sim.Proc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	flush(c, pr) // want "call to flush performs a remoting roundtrip while S.mu is held"
}

func sendHeld(s *S, ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch <- 1 // want "channel send while S.mu is held"
}

func sendFieldHeld(s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events <- 1 // want "channel send while S.mu is held"
}

func notify(ch chan int) { ch <- 1 }

func sendViaHelper(s *S, ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	notify(ch) // want "call to notify sends on a channel while S.mu is held"
}

// out has a constant capacity, but a full buffer blocks the send all the
// same.
func sendBufferedHeld(s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out <- 1 // want "channel send while S.mu is held"
}

// --- negatives ---

// A consistent E -> F order in every function is not a cycle.
func orderEF1(e *E, f *F) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
}

func orderEF2(e *E, f *F) {
	e.mu.Lock()
	f.mu.Lock()
	f.mu.Unlock()
	e.mu.Unlock()
}

// Relocking after a release is a fresh critical section.
func relockAfterUnlock() {
	gmu2.Lock()
	gmu2.Unlock()
	gmu2.Lock()
	gmu2.Unlock()
}

func sendAfterUnlock(ch chan int) {
	gmu2.Lock()
	gmu2.Unlock()
	ch <- 1
}

// A select with a default arm never blocks.
func sendSelectDefault(s *S, ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case ch <- 1:
	default:
	}
}

func readS(s *S) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return 0
}

// Read locks nest with read locks.
func rlockNested(s *S) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return readS(s)
}

// The goroutine body is a separate execution: it does not run while the
// caller's lock is held.
func sendInGoroutine(s *S, ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		ch <- 1
	}()
}

// Lock/Unlock pairs in mutually exclusive arms never overlap.
func lockArms(a *A, cond bool) {
	if cond {
		a.mu.Lock()
		a.mu.Unlock()
		return
	}
	a.mu.Lock()
	a.mu.Unlock()
}
