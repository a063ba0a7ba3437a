package guest

import (
	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
)

// cuDNN descriptor interposition. Descriptor create/set/destroy calls are
// issued in large numbers while loading a model — each one a network round
// trip when remoted naively. With OptLocalDescriptors the guest pools them
// entirely on its side: these APIs "simply allocate memory on the host side
// to hold the opaque structure" (§V-C), so no server state is needed.
//
// The fifteen wrappers below name their remoted form as a method expression
// of the generated client — a constant, where a bound method value would be a
// heap object per call, built before the locally answered path can skip it.

// descriptorCall is the remoted form of a descriptor set or destroy.
type descriptorCall func(*gen.Client, *sim.Proc, cudalibs.Descriptor) error

// createDescriptor implements the cudnnCreate*Descriptor family. On the
// remoted path a recoverable library virtualizes and journals the
// descriptor, like every other server-issued handle.
func (l *Lib) createDescriptor(p *sim.Proc, remote func(*gen.Client, *sim.Proc) (cudalibs.Descriptor, error)) (cudalibs.Descriptor, error) {
	if l.localizing() {
		l.local(p)
		l.nextDesc++
		d := cudalibs.Descriptor(localDescBit | l.nextDesc)
		if l.localDescs == nil {
			l.localDescs = make(map[cudalibs.Descriptor]bool)
		}
		l.localDescs[d] = true
		return d, nil
	}
	return create(l, p, virtDescBase, remote)
}

// setDescriptor implements the cudnnSet*Descriptor family. The remoted set
// is journaled per descriptor (last set wins) so recovered descriptors are
// reconfigured.
func (l *Lib) setDescriptor(p *sim.Proc, d cudalibs.Descriptor, remote descriptorCall) error {
	if l.localizing() {
		l.local(p)
		if !l.localDescs[d] {
			return cuda.ErrInvalidResourceHandle
		}
		return nil
	}
	err := l.sync(p, func(p *sim.Proc) error { return remote(l.cl, p, xh(l, d)) })
	if err == nil && l.rec != nil {
		l.journalPut(jkey{kind: jDescSet, id: uint64(d)}, func(p *sim.Proc) error { return remote(l.cl, p, xh(l, d)) })
	}
	return err
}

// destroyDescriptor implements the cudnnDestroy*Descriptor family.
func (l *Lib) destroyDescriptor(p *sim.Proc, d cudalibs.Descriptor, remote descriptorCall) error {
	if l.localizing() {
		l.local(p)
		if !l.localDescs[d] {
			return cuda.ErrInvalidResourceHandle
		}
		delete(l.localDescs, d)
		return nil
	}
	err := l.sync(p, func(p *sim.Proc) error { return remote(l.cl, p, xh(l, d)) })
	if err == nil {
		l.forget(uint64(d))
	}
	return err
}

// DnnCreateTensorDescriptor mirrors cudnnCreateTensorDescriptor.
func (l *Lib) DnnCreateTensorDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return l.createDescriptor(p, (*gen.Client).DnnCreateTensorDescriptor)
}

// DnnSetTensorDescriptor mirrors cudnnSetTensorNdDescriptor.
func (l *Lib) DnnSetTensorDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return l.setDescriptor(p, d, (*gen.Client).DnnSetTensorDescriptor)
}

// DnnDestroyTensorDescriptor mirrors cudnnDestroyTensorDescriptor.
func (l *Lib) DnnDestroyTensorDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return l.destroyDescriptor(p, d, (*gen.Client).DnnDestroyTensorDescriptor)
}

// DnnCreateFilterDescriptor mirrors cudnnCreateFilterDescriptor.
func (l *Lib) DnnCreateFilterDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return l.createDescriptor(p, (*gen.Client).DnnCreateFilterDescriptor)
}

// DnnSetFilterDescriptor mirrors cudnnSetFilterNdDescriptor.
func (l *Lib) DnnSetFilterDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return l.setDescriptor(p, d, (*gen.Client).DnnSetFilterDescriptor)
}

// DnnDestroyFilterDescriptor mirrors cudnnDestroyFilterDescriptor.
func (l *Lib) DnnDestroyFilterDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return l.destroyDescriptor(p, d, (*gen.Client).DnnDestroyFilterDescriptor)
}

// DnnCreateConvolutionDescriptor mirrors cudnnCreateConvolutionDescriptor.
func (l *Lib) DnnCreateConvolutionDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return l.createDescriptor(p, (*gen.Client).DnnCreateConvolutionDescriptor)
}

// DnnSetConvolutionDescriptor mirrors cudnnSetConvolutionNdDescriptor.
func (l *Lib) DnnSetConvolutionDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return l.setDescriptor(p, d, (*gen.Client).DnnSetConvolutionDescriptor)
}

// DnnDestroyConvolutionDescriptor mirrors cudnnDestroyConvolutionDescriptor.
func (l *Lib) DnnDestroyConvolutionDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return l.destroyDescriptor(p, d, (*gen.Client).DnnDestroyConvolutionDescriptor)
}

// DnnCreateActivationDescriptor mirrors cudnnCreateActivationDescriptor.
func (l *Lib) DnnCreateActivationDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return l.createDescriptor(p, (*gen.Client).DnnCreateActivationDescriptor)
}

// DnnSetActivationDescriptor mirrors cudnnSetActivationDescriptor.
func (l *Lib) DnnSetActivationDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return l.setDescriptor(p, d, (*gen.Client).DnnSetActivationDescriptor)
}

// DnnDestroyActivationDescriptor mirrors cudnnDestroyActivationDescriptor.
func (l *Lib) DnnDestroyActivationDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return l.destroyDescriptor(p, d, (*gen.Client).DnnDestroyActivationDescriptor)
}

// DnnCreatePoolingDescriptor mirrors cudnnCreatePoolingDescriptor.
func (l *Lib) DnnCreatePoolingDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return l.createDescriptor(p, (*gen.Client).DnnCreatePoolingDescriptor)
}

// DnnSetPoolingDescriptor mirrors cudnnSetPoolingNdDescriptor.
func (l *Lib) DnnSetPoolingDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return l.setDescriptor(p, d, (*gen.Client).DnnSetPoolingDescriptor)
}

// DnnDestroyPoolingDescriptor mirrors cudnnDestroyPoolingDescriptor.
func (l *Lib) DnnDestroyPoolingDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return l.destroyDescriptor(p, d, (*gen.Client).DnnDestroyPoolingDescriptor)
}
