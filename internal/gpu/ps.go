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
	if nominal <= 0 {
		return
	}
	r.enter(p)
	defer r.leave(p)

	remaining := float64(nominal) // nanoseconds of solo work left
	for remaining >= 1 {
		n := r.active
		// At rate 1/n the remaining work takes remaining*n wall nanoseconds.
		span := time.Duration(remaining * float64(n))
		if span < 1 {
			span = 1
		}
		start := p.Now()
		timedOut := r.changed.WaitTimeout(p, span)
		elapsed := p.Now() - start
		remaining -= float64(elapsed) / float64(n)
		if timedOut {
			return // ran the full span: work complete
		}
		// The active set changed; loop to recompute the finish time.
	}
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
