package gpu

import (
	"time"

	"dgsf/internal/sim"
)

// psResource is an egalitarian processor-sharing server: n concurrent
// executions each progress at rate 1/n. It models both the SM array (kernels
// from API servers sharing a GPU) and DMA copy engines (concurrent transfers
// sharing bus bandwidth).
type psResource struct {
	e       *sim.Engine
	changed *sim.Cond // broadcast whenever the active set changes

	active    int
	busy      time.Duration // cumulative time with active > 0
	busySince time.Duration // valid while active > 0
}

func newPSResource(e *sim.Engine) *psResource {
	return &psResource{e: e, changed: sim.NewCond(e)}
}

// Exec runs a job of nominal duration d (its duration when running alone),
// blocking p until the job's work is complete under processor sharing.
func (r *psResource) Exec(p *sim.Proc, nominal time.Duration) {
	var j psJob
	for more := j.begin(p, r, nominal); more; more = j.wake(p) {
		p.Park()
	}
}

// psJob is one job on a processor-sharing resource as a step machine, so
// that a step process can run it as well as a coroutine one: begin admits
// the job and arms a wait on the resource; each time the wait ends, wake
// charges the work done since and re-arms, until the job leaves.
type psJob struct {
	r         *psResource
	remaining float64       // nanoseconds of solo work left
	n         int           // the size of the active set when the wait was armed
	start     time.Duration // when the wait was armed
}

// begin admits a job of nominal duration to r and reports whether it has
// armed a wait: false for a job with no work.
func (j *psJob) begin(p *sim.Proc, r *psResource, nominal time.Duration) (more bool) {
	if nominal <= 0 {
		return false
	}
	j.r, j.remaining = r, float64(nominal)
	r.enter(p)
	j.arm(p)
	return true
}

// arm waits until the job would finish at the current rate, or the active
// set changes.
func (j *psJob) arm(p *sim.Proc) {
	j.n = j.r.active
	// At rate 1/n the remaining work takes remaining*n wall nanoseconds.
	span := time.Duration(j.remaining * float64(j.n))
	if span < 1 {
		span = 1
	}
	j.start = p.Now()
	j.r.changed.Arm(p, span)
}

// wake charges the wait that has ended and reports whether the job goes on,
// with its next wait armed; once its work is done it leaves the resource.
func (j *psJob) wake(p *sim.Proc) (more bool) {
	j.remaining -= float64(p.Now()-j.start) / float64(j.n)
	// A wait that ran its full span finished the work; one cut short by a
	// change of the active set recomputes the finish time.
	if !p.TimedOut() && j.remaining >= 1 {
		j.arm(p)
		return true
	}
	j.r.leave(p)
	return false
}

// enter admits a job to the active set.
func (r *psResource) enter(p *sim.Proc) {
	if r.active == 0 {
		r.busySince = p.Now()
	}
	r.active++
	r.changed.Broadcast()
}

// leave removes a job from the active set.
func (r *psResource) leave(p *sim.Proc) {
	r.active--
	if r.active == 0 {
		r.busy += p.Now() - r.busySince
	}
	r.changed.Broadcast()
}

// Busy returns cumulative time during which at least one job was executing.
// While jobs are active the open interval is included.
func (r *psResource) Busy() time.Duration {
	if r.active > 0 {
		return r.busy + (r.e.Now() - r.busySince)
	}
	return r.busy
}
