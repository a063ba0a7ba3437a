package apiserver

import (
	"errors"
	"testing"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/guest"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/wire/wiretest"
	"dgsf/internal/sim"
)

// TestUnderPoolChecks reruns the tests whose outputs depend on payloads
// staying intact while they are read — the sim-vs-TCP bulk script, the timed
// out read, session teardown, batched errors, the fuzz target's seed corpus —
// with the payload pool poisoning every buffer it gets back. Each asserts its
// own outputs; a payload recycled under a reader changes them.
func TestUnderPoolChecks(t *testing.T) {
	wiretest.CheckPool(t)
	t.Run("BulkScriptSimVsTCP", TestBulkScriptSimVsTCP)
	t.Run("BulkLendAndAdoptOverTCP", TestBulkLendAndAdoptOverTCP)
	t.Run("TimedOutMemReadEndsItsLend", TestTimedOutMemReadEndsItsLend)
	t.Run("SessionEndLeavesNothing", TestSessionEndLeavesNothing)
	t.Run("BatchedErrorSurfacesThroughGetLastError", TestBatchedErrorSurfacesThroughGetLastError)
	t.Run("RemotingTransparency", TestRemotingTransparency)
	t.Run("FuzzDispatchBulkMemSeeds", func(t *testing.T) {
		for _, s := range bulkMemSeeds {
			fuzzBulkMem(t, s.write, s.session, s.off, s.n, s.vec, s.owned)
		}
	})
}

// TestPayloadsReturnedAtMostOnce drives every way a message can miss its
// consumer — a connection severed with one-way submissions on the wire, a
// corrupted frame, a reply that arrives after its caller timed out, a server
// that crashes with requests in its inbox, a connection closed under a call —
// between a real guest and a real server, with the pool counting double
// returns (wiretest.CheckPool fails the test on any). A dropped message may
// cost a buffer; none may be returned twice, and the calls that do complete
// must still read what the server wrote.
func TestPayloadsReturnedAtMostOnce(t *testing.T) {
	wiretest.CheckPool(t)
	type fault struct {
		name string
		// inject breaks something after the session is open and a burst of
		// one-way launches is on the wire; it returns the error the next
		// synchronous call must fail with.
		inject func(p *sim.Proc, r allocRig, c remoting.AsyncCaller) error
	}
	faults := []fault{
		{"break with submissions in flight", func(p *sim.Proc, r allocRig, c remoting.AsyncCaller) error {
			c.(remoting.Faultable).Break()
			return cuda.ErrDevicesUnavailable
		}},
		{"corrupt frame", func(p *sim.Proc, r allocRig, c remoting.AsyncCaller) error {
			c.(remoting.Faultable).CorruptNext()
			return cuda.ErrDevicesUnavailable
		}},
		{"reply after timeout", func(p *sim.Proc, r allocRig, c remoting.AsyncCaller) error {
			// The fence behind the launches cannot be answered in 1 us; the
			// server's reply finds the queue closed and releases it itself.
			c.(remoting.DeadlineCaller).SetCallDeadline(time.Microsecond)
			return cuda.ErrDevicesUnavailable
		}},
		{"server crash with requests queued", func(p *sim.Proc, r allocRig, c remoting.AsyncCaller) error {
			// Nobody answers any more; the guest's deadline is how it learns.
			c.(remoting.DeadlineCaller).SetCallDeadline(10 * time.Millisecond)
			r.srv.Crash()
			return cuda.ErrDevicesUnavailable
		}},
		{"close under the next call", func(p *sim.Proc, r allocRig, c remoting.AsyncCaller) error {
			p.Spawn("closer", func(p *sim.Proc) {
				p.Sleep(10 * time.Microsecond)
				c.Close()
			})
			return cuda.ErrDevicesUnavailable
		}},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			e.Run("root", func(p *sim.Proc) {
				r := newAllocRig(t, e, p, guest.OptAll|guest.OptAsync)
				r.lp.Duration = 100 * time.Microsecond
				// Round trips that complete read intact replies.
				for i := 0; i < 3; i++ {
					if free, total, err := r.lib.MemGetInfo(p); err != nil || total != 64<<20 || free != 63<<20 {
						t.Fatalf("MemGetInfo = (%d, %d, %v)", free, total, err)
					}
				}
				for i := 0; i < 32; i++ {
					mustNil(t, r.lib.LaunchKernel(p, r.lp))
				}
				want := f.inject(p, r, r.conn)
				if _, _, err := r.lib.MemGetInfo(p); !errors.Is(err, want) {
					t.Fatalf("MemGetInfo after the fault = %v, want %v", err, want)
				}
				p.Sleep(time.Second) // whatever is still on its way arrives, or is dropped
			})
		})
	}
}
