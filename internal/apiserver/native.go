package apiserver

import (
	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/sim"
)

// Native is the "Native" baseline of Table II: the application's CUDA calls
// run in its own process on a local runtime, with no interposition and no
// network. It is an unpooled server without a model cache or a data plane,
// called in-process — no request loop — which is the same call stream
// without DGSF's serverless specializations (§V-C): CUDA initialization is
// paid on the first call (~3.2 s), cuDNN/cuBLAS handles are created at full
// cost when first needed, nothing outlives the process (ModelAttach and
// ModelBroadcast miss, ModelPersist frees, MemExport/MemImport/PeerCopy
// fail). What a native process sees differently is the device virtualization
// of §V-B, which it does not have: the methods below answer the device
// queries from the runtime, at the runtime's cost.
type Native struct{ *Server }

// NewNative returns the native arm over rt. The runtime must not be
// initialized yet: initialization cost is part of what this baseline
// measures.
func NewNative(rt *cuda.Runtime, libCosts cudalibs.Costs) *Native {
	return &Native{NewServer(rt.Engine(), rt, Config{LibCosts: libCosts})}
}

// Hello stands for the process's first CUDA call: the runtime initializes on
// the current device, with no cudaSetDevice of a home GPU ahead of it.
func (n *Native) Hello(p *sim.Proc, fnID string, memLimit int64) error {
	return n.begin(p, fnID, memLimit, false)
}

// GetDeviceCount reports the machine's real device count.
func (n *Native) GetDeviceCount(p *sim.Proc) (int, error) {
	if _, _, err := n.open(p); err != nil {
		return 0, err
	}
	return n.rt.DeviceCount(p)
}

// SetDevice is cudaSetDevice on the runtime. The calls that follow keep
// running in the context the session opened on: every native arm has one GPU.
func (n *Native) SetDevice(p *sim.Proc, dev int) error {
	if _, _, err := n.open(p); err != nil {
		return err
	}
	return n.rt.SetDevice(p, dev)
}

// GetDevice reports the runtime's current device.
func (n *Native) GetDevice(p *sim.Proc) (int, error) {
	if _, _, err := n.open(p); err != nil {
		return 0, err
	}
	return n.rt.GetDevice(p)
}

// MemGetInfo reports real device memory, not the declared limit.
func (n *Native) MemGetInfo(p *sim.Proc) (int64, int64, error) {
	if _, _, err := n.open(p); err != nil {
		return 0, 0, err
	}
	return n.rt.MemGetInfo(p)
}

// Held reports what the session's byte store keeps of the bytes uploaded
// with MemWrite: allocations holding bytes, bytes held and their capacity.
func (n *Native) Held() (allocs int, bytes, capacity int64) {
	if n.sess == nil {
		return 0, 0, 0
	}
	return n.sess.mem.Held()
}

// PointerGetAttributes asks the runtime for the device of a pointer it
// knows, as the CUDA runtime does.
func (n *Native) PointerGetAttributes(p *sim.Proc, ptr cuda.DevPtr) (cuda.PtrAttributes, error) {
	attrs, err := n.Server.PointerGetAttributes(p, ptr)
	if err == nil {
		attrs.Device, _ = n.rt.GetDevice(p)
	}
	return attrs, err
}
