package apiserver

import (
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/sim"
)

// cuDNN / cuBLAS backend: the API methods over the session's resource table
// (resources.go), where a library handle is one more kind.

// setStream serves cudnnSetStream/cublasSetStream; stream binding is implicit
// in this model, so only handle validity is checked.
func (s *Server) setStream(p *sim.Proc, k kind, h uint64, stream cuda.StreamHandle) error {
	if _, err := s.real(k, h); err != nil {
		return err
	}
	_, err := s.stream(stream)
	return err
}

// launch translates a virtual library handle and runs one of its primitives.
func (s *Server) launch(p *sim.Proc, k kind, h uint64, op string, dur time.Duration, bufs []cuda.DevPtr) error {
	real, err := s.real(k, h)
	if err != nil {
		return err
	}
	return s.libs.Launch(p, k.lib(), real, op, dur, bufs)
}

// DnnCreate mirrors cudnnCreate.
func (s *Server) DnnCreate(p *sim.Proc) (cudalibs.DNNHandle, error) {
	return create[cudalibs.DNNHandle](s, p, kDNN, 0)
}

// DnnDestroy returns the handle to the pool (or destroys it).
func (s *Server) DnnDestroy(p *sim.Proc, h cudalibs.DNNHandle) error {
	return s.drop(p, kDNN, uint64(h))
}

// DnnSetStream mirrors cudnnSetStream.
func (s *Server) DnnSetStream(p *sim.Proc, h cudalibs.DNNHandle, stream cuda.StreamHandle) error {
	return s.setStream(p, kDNN, uint64(h), stream)
}

// DnnGetConvolutionWorkspaceSize mirrors its cuDNN namesake.
func (s *Server) DnnGetConvolutionWorkspaceSize(p *sim.Proc, d cudalibs.Descriptor) (int64, error) {
	if _, err := s.real(kDesc, uint64(d)); err != nil {
		return 0, err
	}
	return 64 << 20, nil
}

// DnnForward translates the virtual handle and runs the primitive.
func (s *Server) DnnForward(p *sim.Proc, h cudalibs.DNNHandle, op string, dur time.Duration, bufs []cuda.DevPtr, descs []uint64) error {
	return s.launch(p, kDNN, uint64(h), op, dur, bufs)
}

// BlasCreate mirrors cublasCreate, pool-backed like DnnCreate.
func (s *Server) BlasCreate(p *sim.Proc) (cudalibs.BLASHandle, error) {
	return create[cudalibs.BLASHandle](s, p, kBLAS, 0)
}

// BlasDestroy returns the handle to the pool (or destroys it).
func (s *Server) BlasDestroy(p *sim.Proc, h cudalibs.BLASHandle) error {
	return s.drop(p, kBLAS, uint64(h))
}

// BlasSetStream mirrors cublasSetStream.
func (s *Server) BlasSetStream(p *sim.Proc, h cudalibs.BLASHandle, stream cuda.StreamHandle) error {
	return s.setStream(p, kBLAS, uint64(h), stream)
}

// BlasGemm translates the virtual handle and runs the GEMM.
func (s *Server) BlasGemm(p *sim.Proc, h cudalibs.BLASHandle, dur time.Duration, bufs []cuda.DevPtr) error {
	return s.launch(p, kBLAS, uint64(h), "", dur, bufs)
}

// --- descriptor backend (for unoptimized guests that remote them) ---

func (s *Server) setDesc(p *sim.Proc, d cudalibs.Descriptor) error {
	if _, err := s.real(kDesc, uint64(d)); err != nil {
		return err
	}
	return s.libs.SetDescriptor(p, d)
}

// DnnCreateTensorDescriptor mirrors cudnnCreateTensorDescriptor.
func (s *Server) DnnCreateTensorDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return create[cudalibs.Descriptor](s, p, kDesc, cudalibs.TensorDescriptor)
}

// DnnSetTensorDescriptor mirrors cudnnSetTensorNdDescriptor.
func (s *Server) DnnSetTensorDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return s.setDesc(p, d)
}

// DnnDestroyTensorDescriptor mirrors cudnnDestroyTensorDescriptor.
func (s *Server) DnnDestroyTensorDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return s.drop(p, kDesc, uint64(d))
}

// DnnCreateFilterDescriptor mirrors cudnnCreateFilterDescriptor.
func (s *Server) DnnCreateFilterDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return create[cudalibs.Descriptor](s, p, kDesc, cudalibs.FilterDescriptor)
}

// DnnSetFilterDescriptor mirrors cudnnSetFilterNdDescriptor.
func (s *Server) DnnSetFilterDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return s.setDesc(p, d)
}

// DnnDestroyFilterDescriptor mirrors cudnnDestroyFilterDescriptor.
func (s *Server) DnnDestroyFilterDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return s.drop(p, kDesc, uint64(d))
}

// DnnCreateConvolutionDescriptor mirrors cudnnCreateConvolutionDescriptor.
func (s *Server) DnnCreateConvolutionDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return create[cudalibs.Descriptor](s, p, kDesc, cudalibs.ConvolutionDescriptor)
}

// DnnSetConvolutionDescriptor mirrors cudnnSetConvolutionNdDescriptor.
func (s *Server) DnnSetConvolutionDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return s.setDesc(p, d)
}

// DnnDestroyConvolutionDescriptor mirrors cudnnDestroyConvolutionDescriptor.
func (s *Server) DnnDestroyConvolutionDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return s.drop(p, kDesc, uint64(d))
}

// DnnCreateActivationDescriptor mirrors cudnnCreateActivationDescriptor.
func (s *Server) DnnCreateActivationDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return create[cudalibs.Descriptor](s, p, kDesc, cudalibs.ActivationDescriptor)
}

// DnnSetActivationDescriptor mirrors cudnnSetActivationDescriptor.
func (s *Server) DnnSetActivationDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return s.setDesc(p, d)
}

// DnnDestroyActivationDescriptor mirrors cudnnDestroyActivationDescriptor.
func (s *Server) DnnDestroyActivationDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return s.drop(p, kDesc, uint64(d))
}

// DnnCreatePoolingDescriptor mirrors cudnnCreatePoolingDescriptor.
func (s *Server) DnnCreatePoolingDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return create[cudalibs.Descriptor](s, p, kDesc, cudalibs.PoolingDescriptor)
}

// DnnSetPoolingDescriptor mirrors cudnnSetPoolingNdDescriptor.
func (s *Server) DnnSetPoolingDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return s.setDesc(p, d)
}

// DnnDestroyPoolingDescriptor mirrors cudnnDestroyPoolingDescriptor.
func (s *Server) DnnDestroyPoolingDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return s.drop(p, kDesc, uint64(d))
}
