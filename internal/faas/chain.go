package faas

import (
	"time"

	"dgsf/internal/dataplane"
	"dgsf/internal/sim"
)

// ChainSpec describes a two-stage producer→consumer pipeline whose
// intermediate tensor is handed off GPU-side when possible: the producer
// exports its output tensor (MemExport), the consumer imports it in place
// (MemImport, same GPU server) or pulls it over the fabric (PeerCopy,
// different GPU server). The baseline — and the fallback whenever the
// GPU-side attempt fails — bounces the tensor through the host: the
// producer reads it back, the backend round-trips it through the object
// store, and the consumer re-uploads it.
type ChainSpec struct {
	Producer *Function
	Consumer *Function

	// Handoff is shared with the two function bodies: the driver resets it
	// per attempt, the producer publishes its export (or its bounce bytes)
	// there, and the consumer picks it up. Nil runs the chain in bounce
	// mode unconditionally.
	Handoff *dataplane.Handoff

	// Fabric, when set, records fallbacks on the data-plane metrics.
	Fabric *dataplane.Fabric

	// CrossServer places the consumer on a different GPU server than the
	// producer, forcing the peer-copy path. The default prefers the
	// producer's server, where the import is a zero-copy remap.
	CrossServer bool

	// ForceBounce skips the GPU-side attempt and runs the chain through the
	// host bounce even with a Handoff set — the experiment baseline.
	ForceBounce bool
}

// ChainResult records one chain execution. Producer/Consumer hold the
// invocations of the attempt that finished the chain (the bounce re-run's
// after a fallback); Err is nil when that attempt completed.
type ChainResult struct {
	Producer *Invocation
	Consumer *Invocation
	FellBack bool // GPU-side attempt failed; re-ran as bounce
	Start    time.Duration
	Done     time.Duration
	Err      error
}

// E2E returns the chain's end-to-end latency including any fallback re-run.
func (r *ChainResult) E2E() time.Duration { return r.Done - r.Start }

// InvokeChain runs the chain synchronously on the calling proc. With a
// Handoff it first attempts the GPU-side path; any failure there (producer
// error, lost export after a GPU-server crash, consumer import error) falls
// back to a full bounce re-run — chains complete as long as the backend
// retains any healthy capacity, they just lose the data-plane win.
func (b *Backend) InvokeChain(p *sim.Proc, spec ChainSpec) *ChainResult {
	res := &ChainResult{Start: p.Now()}
	if spec.Handoff != nil && !spec.ForceBounce {
		if b.chainGPU(p, spec, res) {
			res.Done = p.Now()
			return res
		}
		res.FellBack = true
		if spec.Fabric != nil {
			spec.Fabric.NoteFallback()
			// The producer may have published its tensor before the GPU-side
			// attempt died (consumer failed, no server to land it on). Nobody
			// will ever import it now — release the export so the fallback
			// does not leak device memory on every failed handoff.
			if spec.Handoff.Export != 0 {
				spec.Fabric.Abandon(spec.Handoff.Export)
			}
		}
	}
	b.chainBounce(p, spec, res)
	res.Done = p.Now()
	return res
}

// chainGPU attempts the GPU-side handoff, reporting whether it completed.
func (b *Backend) chainGPU(p *sim.Proc, spec ChainSpec, res *ChainResult) bool {
	h := spec.Handoff
	h.Reset(dataplane.HandoffGPU)
	pinv := b.Invoke(p, spec.Producer)
	res.Producer, res.Err = pinv, pinv.Err
	if pinv.Err != nil || h.Export == 0 {
		return false
	}
	// Same-server: land the consumer where the export's backing memory
	// already lives. Cross-server: force it elsewhere so the tensor rides
	// the fabric.
	pref := pinv.Server
	if spec.CrossServer {
		if pref = b.selectHealthyExcept(pinv.Server); pref < 0 {
			return false
		}
	}
	cinv := b.InvokeOn(p, spec.Consumer, pref)
	res.Consumer, res.Err = cinv, cinv.Err
	return cinv.Err == nil
}

// chainBounce runs the chain through the host: the producer body reads the
// tensor back (Handoff.Mode tells it to), the driver charges the object
// store round trip, and the consumer body re-uploads.
func (b *Backend) chainBounce(p *sim.Proc, spec ChainSpec, res *ChainResult) {
	h := spec.Handoff
	if h != nil {
		h.Reset(dataplane.HandoffBounce)
	}
	pinv := b.Invoke(p, spec.Producer)
	res.Producer, res.Err = pinv, pinv.Err
	res.Consumer = nil
	if pinv.Err != nil {
		return
	}
	if h != nil && h.Bytes > 0 {
		// Upload to the object store, then the consumer's download. Both
		// legs cross the provider network at objstore bandwidth.
		rt := b.env.Download.TransferTime(p, h.Bytes)
		p.Sleep(rt + b.env.Download.TransferTime(p, h.Bytes))
	}
	cinv := b.Invoke(p, spec.Consumer)
	res.Consumer, res.Err = cinv, cinv.Err
}
