// Code generated by cmd/apigen. DO NOT EDIT.

// Package gen contains the generated DGSF remoting layer: call IDs,
// request/response message types with binary encoding, the guest-side
// Client, and the server-side Dispatch function. Regenerate with:
//
//	go run ./cmd/apigen -out internal/remoting/gen/gen.go
package gen

import (
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/gpu"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

var _ time.Duration // some specs may not use every import
var _ gpu.HostBuffer
var _ cudalibs.Descriptor

// Call identifiers. ID 0 is reserved; remoting.CallBatch (0xFFFF) is the
// batch container.
const (
	CallHello                           uint16 = 1
	CallBye                             uint16 = 2
	CallRegisterKernels                 uint16 = 3
	CallGetDeviceCount                  uint16 = 4
	CallGetDeviceProperties             uint16 = 5
	CallSetDevice                       uint16 = 6
	CallGetDevice                       uint16 = 7
	CallMemGetInfo                      uint16 = 8
	CallDeviceSynchronize               uint16 = 9
	CallGetLastError                    uint16 = 10
	CallDriverGetVersion                uint16 = 11
	CallRuntimeGetVersion               uint16 = 12
	CallMalloc                          uint16 = 13
	CallFree                            uint16 = 14
	CallMemset                          uint16 = 15
	CallMemcpyH2D                       uint16 = 16
	CallMemcpyD2H                       uint16 = 17
	CallMemcpyD2D                       uint16 = 18
	CallMallocHost                      uint16 = 19
	CallFreeHost                        uint16 = 20
	CallPointerGetAttributes            uint16 = 21
	CallPushCallConfiguration           uint16 = 22
	CallPopCallConfiguration            uint16 = 23
	CallLaunchKernel                    uint16 = 24
	CallStreamCreate                    uint16 = 25
	CallStreamDestroy                   uint16 = 26
	CallStreamSynchronize               uint16 = 27
	CallEventCreate                     uint16 = 28
	CallEventDestroy                    uint16 = 29
	CallEventRecord                     uint16 = 30
	CallEventSynchronize                uint16 = 31
	CallEventElapsed                    uint16 = 32
	CallDnnCreate                       uint16 = 33
	CallDnnDestroy                      uint16 = 34
	CallDnnSetStream                    uint16 = 35
	CallDnnGetConvolutionWorkspaceSize  uint16 = 36
	CallDnnForward                      uint16 = 37
	CallBlasCreate                      uint16 = 38
	CallBlasDestroy                     uint16 = 39
	CallBlasSetStream                   uint16 = 40
	CallBlasGemm                        uint16 = 41
	CallModelAttach                     uint16 = 42
	CallModelPersist                    uint16 = 43
	CallMemExport                       uint16 = 44
	CallMemImport                       uint16 = 45
	CallPeerCopy                        uint16 = 46
	CallModelBroadcast                  uint16 = 47
	CallMemWrite                        uint16 = 48
	CallMemRead                         uint16 = 49
	CallDnnCreateTensorDescriptor       uint16 = 50
	CallDnnSetTensorDescriptor          uint16 = 51
	CallDnnDestroyTensorDescriptor      uint16 = 52
	CallDnnCreateFilterDescriptor       uint16 = 53
	CallDnnSetFilterDescriptor          uint16 = 54
	CallDnnDestroyFilterDescriptor      uint16 = 55
	CallDnnCreateConvolutionDescriptor  uint16 = 56
	CallDnnSetConvolutionDescriptor     uint16 = 57
	CallDnnDestroyConvolutionDescriptor uint16 = 58
	CallDnnCreateActivationDescriptor   uint16 = 59
	CallDnnSetActivationDescriptor      uint16 = 60
	CallDnnDestroyActivationDescriptor  uint16 = 61
	CallDnnCreatePoolingDescriptor      uint16 = 62
	CallDnnSetPoolingDescriptor         uint16 = 63
	CallDnnDestroyPoolingDescriptor     uint16 = 64
)

// NumCalls is the number of generated calls.
const NumCalls = 64

// callNames maps IDs to API names for diagnostics and statistics.
var callNames = map[uint16]string{
	CallHello:                           "Hello",
	CallBye:                             "Bye",
	CallRegisterKernels:                 "RegisterKernels",
	CallGetDeviceCount:                  "GetDeviceCount",
	CallGetDeviceProperties:             "GetDeviceProperties",
	CallSetDevice:                       "SetDevice",
	CallGetDevice:                       "GetDevice",
	CallMemGetInfo:                      "MemGetInfo",
	CallDeviceSynchronize:               "DeviceSynchronize",
	CallGetLastError:                    "GetLastError",
	CallDriverGetVersion:                "DriverGetVersion",
	CallRuntimeGetVersion:               "RuntimeGetVersion",
	CallMalloc:                          "Malloc",
	CallFree:                            "Free",
	CallMemset:                          "Memset",
	CallMemcpyH2D:                       "MemcpyH2D",
	CallMemcpyD2H:                       "MemcpyD2H",
	CallMemcpyD2D:                       "MemcpyD2D",
	CallMallocHost:                      "MallocHost",
	CallFreeHost:                        "FreeHost",
	CallPointerGetAttributes:            "PointerGetAttributes",
	CallPushCallConfiguration:           "PushCallConfiguration",
	CallPopCallConfiguration:            "PopCallConfiguration",
	CallLaunchKernel:                    "LaunchKernel",
	CallStreamCreate:                    "StreamCreate",
	CallStreamDestroy:                   "StreamDestroy",
	CallStreamSynchronize:               "StreamSynchronize",
	CallEventCreate:                     "EventCreate",
	CallEventDestroy:                    "EventDestroy",
	CallEventRecord:                     "EventRecord",
	CallEventSynchronize:                "EventSynchronize",
	CallEventElapsed:                    "EventElapsed",
	CallDnnCreate:                       "DnnCreate",
	CallDnnDestroy:                      "DnnDestroy",
	CallDnnSetStream:                    "DnnSetStream",
	CallDnnGetConvolutionWorkspaceSize:  "DnnGetConvolutionWorkspaceSize",
	CallDnnForward:                      "DnnForward",
	CallBlasCreate:                      "BlasCreate",
	CallBlasDestroy:                     "BlasDestroy",
	CallBlasSetStream:                   "BlasSetStream",
	CallBlasGemm:                        "BlasGemm",
	CallModelAttach:                     "ModelAttach",
	CallModelPersist:                    "ModelPersist",
	CallMemExport:                       "MemExport",
	CallMemImport:                       "MemImport",
	CallPeerCopy:                        "PeerCopy",
	CallModelBroadcast:                  "ModelBroadcast",
	CallMemWrite:                        "MemWrite",
	CallMemRead:                         "MemRead",
	CallDnnCreateTensorDescriptor:       "DnnCreateTensorDescriptor",
	CallDnnSetTensorDescriptor:          "DnnSetTensorDescriptor",
	CallDnnDestroyTensorDescriptor:      "DnnDestroyTensorDescriptor",
	CallDnnCreateFilterDescriptor:       "DnnCreateFilterDescriptor",
	CallDnnSetFilterDescriptor:          "DnnSetFilterDescriptor",
	CallDnnDestroyFilterDescriptor:      "DnnDestroyFilterDescriptor",
	CallDnnCreateConvolutionDescriptor:  "DnnCreateConvolutionDescriptor",
	CallDnnSetConvolutionDescriptor:     "DnnSetConvolutionDescriptor",
	CallDnnDestroyConvolutionDescriptor: "DnnDestroyConvolutionDescriptor",
	CallDnnCreateActivationDescriptor:   "DnnCreateActivationDescriptor",
	CallDnnSetActivationDescriptor:      "DnnSetActivationDescriptor",
	CallDnnDestroyActivationDescriptor:  "DnnDestroyActivationDescriptor",
	CallDnnCreatePoolingDescriptor:      "DnnCreatePoolingDescriptor",
	CallDnnSetPoolingDescriptor:         "DnnSetPoolingDescriptor",
	CallDnnDestroyPoolingDescriptor:     "DnnDestroyPoolingDescriptor",
}

// CallName returns the API name for a call ID.
func CallName(id uint16) string {
	if id == remoting.CallBatch {
		return "Batch"
	}
	if n, ok := callNames[id]; ok {
		return n
	}
	return "?"
}

// Class constants classify calls per §V-B: Remote calls need the API
// server; Local calls are answerable by the guest library; Batchable
// calls have no immediately-needed result and may be deferred.
type Class int

// Call classes.
const (
	ClassRemote Class = iota
	ClassLocal
	ClassBatchable
)

var callClasses = [NumCalls + 2]Class{
	CallHello:                           ClassRemote,
	CallBye:                             ClassRemote,
	CallRegisterKernels:                 ClassRemote,
	CallGetDeviceCount:                  ClassRemote,
	CallGetDeviceProperties:             ClassRemote,
	CallSetDevice:                       ClassRemote,
	CallGetDevice:                       ClassLocal,
	CallMemGetInfo:                      ClassRemote,
	CallDeviceSynchronize:               ClassRemote,
	CallGetLastError:                    ClassLocal,
	CallDriverGetVersion:                ClassLocal,
	CallRuntimeGetVersion:               ClassLocal,
	CallMalloc:                          ClassRemote,
	CallFree:                            ClassBatchable,
	CallMemset:                          ClassBatchable,
	CallMemcpyH2D:                       ClassRemote,
	CallMemcpyD2H:                       ClassRemote,
	CallMemcpyD2D:                       ClassRemote,
	CallMallocHost:                      ClassLocal,
	CallFreeHost:                        ClassLocal,
	CallPointerGetAttributes:            ClassLocal,
	CallPushCallConfiguration:           ClassLocal,
	CallPopCallConfiguration:            ClassLocal,
	CallLaunchKernel:                    ClassBatchable,
	CallStreamCreate:                    ClassRemote,
	CallStreamDestroy:                   ClassBatchable,
	CallStreamSynchronize:               ClassRemote,
	CallEventCreate:                     ClassRemote,
	CallEventDestroy:                    ClassBatchable,
	CallEventRecord:                     ClassBatchable,
	CallEventSynchronize:                ClassRemote,
	CallEventElapsed:                    ClassRemote,
	CallDnnCreate:                       ClassRemote,
	CallDnnDestroy:                      ClassBatchable,
	CallDnnSetStream:                    ClassBatchable,
	CallDnnGetConvolutionWorkspaceSize:  ClassRemote,
	CallDnnForward:                      ClassRemote,
	CallBlasCreate:                      ClassRemote,
	CallBlasDestroy:                     ClassBatchable,
	CallBlasSetStream:                   ClassBatchable,
	CallBlasGemm:                        ClassRemote,
	CallModelAttach:                     ClassRemote,
	CallModelPersist:                    ClassRemote,
	CallMemExport:                       ClassRemote,
	CallMemImport:                       ClassRemote,
	CallPeerCopy:                        ClassRemote,
	CallModelBroadcast:                  ClassRemote,
	CallMemWrite:                        ClassRemote,
	CallMemRead:                         ClassRemote,
	CallDnnCreateTensorDescriptor:       ClassLocal,
	CallDnnSetTensorDescriptor:          ClassLocal,
	CallDnnDestroyTensorDescriptor:      ClassLocal,
	CallDnnCreateFilterDescriptor:       ClassLocal,
	CallDnnSetFilterDescriptor:          ClassLocal,
	CallDnnDestroyFilterDescriptor:      ClassLocal,
	CallDnnCreateConvolutionDescriptor:  ClassLocal,
	CallDnnSetConvolutionDescriptor:     ClassLocal,
	CallDnnDestroyConvolutionDescriptor: ClassLocal,
	CallDnnCreateActivationDescriptor:   ClassLocal,
	CallDnnSetActivationDescriptor:      ClassLocal,
	CallDnnDestroyActivationDescriptor:  ClassLocal,
	CallDnnCreatePoolingDescriptor:      ClassLocal,
	CallDnnSetPoolingDescriptor:         ClassLocal,
	CallDnnDestroyPoolingDescriptor:     ClassLocal,
}

// CallClass returns the class of a call ID. An unknown ID reads the table's spare last slot: ClassRemote.
func CallClass(id uint16) Class { return callClasses[min(id, NumCalls+1)] }

// API is the remoted DGSF API surface. The guest library, the API
// server backend and the native (non-remoted) baseline all implement it.
type API interface {
	// Hello opens a function session on the API server, declaring the function's GPU memory requirement.
	Hello(p *sim.Proc, fnID string, memLimit int64) (err error)

	// Bye ends the function session, releasing all of its server-side resources.
	Bye(p *sim.Proc) (err error)

	// RegisterKernels sends the function's kernel symbols ahead of execution (step 2 in Fig. 2) and returns their function handles.
	RegisterKernels(p *sim.Proc, names []string) (ptrs []cuda.FnPtr, err error)

	// GetDeviceCount mirrors cudaGetDeviceCount; DGSF API servers always answer 1.
	GetDeviceCount(p *sim.Proc) (n int, err error)

	// GetDeviceProperties mirrors cudaGetDeviceProperties for the virtual device.
	GetDeviceProperties(p *sim.Proc, dev int) (prop cuda.DeviceProp, err error)

	// SetDevice mirrors cudaSetDevice; only virtual device 0 is valid.
	SetDevice(p *sim.Proc, dev int) (err error)

	// GetDevice mirrors cudaGetDevice.
	GetDevice(p *sim.Proc) (dev int, err error)

	// MemGetInfo mirrors cudaMemGetInfo, scoped to the function's memory limit.
	MemGetInfo(p *sim.Proc) (free int64, total int64, err error)

	// DeviceSynchronize mirrors cudaDeviceSynchronize.
	DeviceSynchronize(p *sim.Proc) (err error)

	// GetLastError mirrors cudaGetLastError; tracked guest-side.
	GetLastError(p *sim.Proc) (code int, err error)

	// DriverGetVersion mirrors cuDriverGetVersion; a constant, answered locally.
	DriverGetVersion(p *sim.Proc) (v int, err error)

	// RuntimeGetVersion mirrors cudaRuntimeGetVersion; a constant, answered locally.
	RuntimeGetVersion(p *sim.Proc) (v int, err error)

	// Malloc mirrors cudaMalloc; the API server realizes it through the low-level VMM path so migration preserves the address.
	Malloc(p *sim.Proc, size int64) (ptr cuda.DevPtr, err error)

	// Free mirrors cudaFree.
	Free(p *sim.Proc, ptr cuda.DevPtr) (err error)

	// Memset mirrors cudaMemset.
	Memset(p *sim.Proc, ptr cuda.DevPtr, value byte, size int64) (err error)

	// MemcpyH2D mirrors cudaMemcpy(HostToDevice); the host payload rides with the request.
	MemcpyH2D(p *sim.Proc, dst cuda.DevPtr, src gpu.HostBuffer, size int64) (err error)

	// MemcpyD2H mirrors cudaMemcpy(DeviceToHost); the device payload rides with the response.
	MemcpyD2H(p *sim.Proc, src cuda.DevPtr, size int64) (buf gpu.HostBuffer, err error)

	// MemcpyD2D mirrors cudaMemcpy(DeviceToDevice).
	MemcpyD2D(p *sim.Proc, dst cuda.DevPtr, src cuda.DevPtr, size int64) (err error)

	// MallocHost mirrors cudaMallocHost; host-only state, fully emulated by the guest library when optimized.
	MallocHost(p *sim.Proc, size int64) (ptr uint64, err error)

	// FreeHost mirrors cudaFreeHost.
	FreeHost(p *sim.Proc, ptr uint64) (err error)

	// PointerGetAttributes mirrors cudaPointerGetAttributes; the optimized guest answers from tracked allocations.
	PointerGetAttributes(p *sim.Proc, ptr cuda.DevPtr) (a cuda.PtrAttributes, err error)

	// PushCallConfiguration mirrors __cudaPushCallConfiguration; piggybacked onto the launch when optimized.
	PushCallConfiguration(p *sim.Proc, grid [3]int, block [3]int, stream cuda.StreamHandle) (err error)

	// PopCallConfiguration mirrors __cudaPopCallConfiguration.
	PopCallConfiguration(p *sim.Proc) (err error)

	// LaunchKernel mirrors cudaLaunchKernel; asynchronous, so batchable — a guest library that defers the launch borrows LP.Mutates until its next flush or fence.
	LaunchKernel(p *sim.Proc, lP cuda.LaunchParams) (err error)

	// StreamCreate mirrors cudaStreamCreate; the server pre-replicates the stream in every context it holds (§V-D).
	StreamCreate(p *sim.Proc) (h cuda.StreamHandle, err error)

	// StreamDestroy mirrors cudaStreamDestroy.
	StreamDestroy(p *sim.Proc, h cuda.StreamHandle) (err error)

	// StreamSynchronize mirrors cudaStreamSynchronize.
	StreamSynchronize(p *sim.Proc, h cuda.StreamHandle) (err error)

	// EventCreate mirrors cudaEventCreate.
	EventCreate(p *sim.Proc) (h cuda.EventHandle, err error)

	// EventDestroy mirrors cudaEventDestroy.
	EventDestroy(p *sim.Proc, h cuda.EventHandle) (err error)

	// EventRecord mirrors cudaEventRecord.
	EventRecord(p *sim.Proc, h cuda.EventHandle, stream cuda.StreamHandle) (err error)

	// EventSynchronize mirrors cudaEventSynchronize.
	EventSynchronize(p *sim.Proc, h cuda.EventHandle) (err error)

	// EventElapsed mirrors cudaEventElapsedTime.
	EventElapsed(p *sim.Proc, start cuda.EventHandle, end cuda.EventHandle) (d time.Duration, err error)

	// DnnCreate mirrors cudnnCreate; served from the API server's pre-created handle pool when optimized (§V-C).
	DnnCreate(p *sim.Proc) (h cudalibs.DNNHandle, err error)

	// DnnDestroy mirrors cudnnDestroy.
	DnnDestroy(p *sim.Proc, h cudalibs.DNNHandle) (err error)

	// DnnSetStream mirrors cudnnSetStream.
	DnnSetStream(p *sim.Proc, h cudalibs.DNNHandle, stream cuda.StreamHandle) (err error)

	// DnnGetConvolutionWorkspaceSize mirrors cudnnGetConvolutionForwardWorkspaceSize.
	DnnGetConvolutionWorkspaceSize(p *sim.Proc, d cudalibs.Descriptor) (size int64, err error)

	// DnnForward runs a cuDNN compute primitive (convolution, batch-norm, ...) of the given nominal duration.
	DnnForward(p *sim.Proc, h cudalibs.DNNHandle, op string, dur time.Duration, bufs []cuda.DevPtr, descs []uint64) (err error)

	// BlasCreate mirrors cublasCreate; pooled like cuDNN handles.
	BlasCreate(p *sim.Proc) (h cudalibs.BLASHandle, err error)

	// BlasDestroy mirrors cublasDestroy.
	BlasDestroy(p *sim.Proc, h cudalibs.BLASHandle) (err error)

	// BlasSetStream mirrors cublasSetStream.
	BlasSetStream(p *sim.Proc, h cudalibs.BLASHandle, stream cuda.StreamHandle) (err error)

	// BlasGemm mirrors cublasSgemm with the given nominal duration.
	BlasGemm(p *sim.Proc, h cudalibs.BLASHandle, dur time.Duration, bufs []cuda.DevPtr) (err error)

	// ModelAttach asks the API server for a cached copy of the session function's model working set; Tier reports where it was found (0 miss, 1 host-staged, 2 GPU-resident) and Ptr/Size are zero on a miss.
	ModelAttach(p *sim.Proc) (ptr cuda.DevPtr, size int64, tier int, err error)

	// ModelPersist marks a session allocation as the function's model working set, a candidate for retention in the model cache when the session ends; without a cache it behaves like cudaFree.
	ModelPersist(p *sim.Proc, ptr cuda.DevPtr) (err error)

	// MemExport detaches a session allocation and publishes it on the GPU server's data plane under a fabric-wide export ID; ownership moves out of the session (like ModelPersist, it is a state-removing call) and the tensor stays device-resident awaiting a consumer.
	MemExport(p *sim.Proc, ptr cuda.DevPtr, tag string) (export uint64, size int64, err error)

	// MemImport maps an export published by another API server on the same GPU server into the session: a zero-copy VMM remap when producer and consumer share a device, a D2D clone across devices of one machine; fails for exports on other GPU servers (use PeerCopy).
	MemImport(p *sim.Proc, export uint64) (ptr cuda.DevPtr, size int64, err error)

	// PeerCopy pulls an export from another GPU server over the bandwidth-modeled data-plane fabric into a fresh session allocation, consuming the export; degrades to MemImport semantics when the export turns out to be local.
	PeerCopy(p *sim.Proc, export uint64) (ptr cuda.DevPtr, size int64, err error)

	// ModelBroadcast one-to-many model fan-out: the first caller per GPU server pays a single host-staged read and becomes the broadcast source, later callers clone it device-to-device; Src reports the path (0 miss, 1 host seed, 2 device clone) and Ptr/Size are zero on a miss.
	ModelBroadcast(p *sim.Proc) (ptr cuda.DevPtr, size int64, src int, err error)

	// MemWrite writes caller-provided bytes into device memory: the vectored twin of MemcpyH2D — the bytes travel borrowed as the frame's bulk region (single writev, zero copies); data stays the caller's, the range must lie inside the allocation that contains dst.
	MemWrite(p *sim.Proc, dst cuda.DevPtr, data []byte) (err error)

	// MemRead reads device memory back to the caller: the vectored twin of MemcpyD2H — the bytes return as the reply's bulk region, scatter-read into a caller-owned buffer; bytes never uploaded read as zeros, the range must lie inside the allocation that contains src; a direct (non-remoted) caller's result is a view of the backend's storage, valid until the next call that writes or frees src.
	MemRead(p *sim.Proc, src cuda.DevPtr, size int64) (data []byte, err error)

	// DnnCreateTensorDescriptor mirrors cudnnCreateTensorDescriptor; pooled guest-side when optimized.
	DnnCreateTensorDescriptor(p *sim.Proc) (d cudalibs.Descriptor, err error)

	// DnnSetTensorDescriptor mirrors cudnnSetTensorDescriptor.
	DnnSetTensorDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error)

	// DnnDestroyTensorDescriptor mirrors cudnnDestroyTensorDescriptor.
	DnnDestroyTensorDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error)

	// DnnCreateFilterDescriptor mirrors cudnnCreateFilterDescriptor; pooled guest-side when optimized.
	DnnCreateFilterDescriptor(p *sim.Proc) (d cudalibs.Descriptor, err error)

	// DnnSetFilterDescriptor mirrors cudnnSetFilterDescriptor.
	DnnSetFilterDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error)

	// DnnDestroyFilterDescriptor mirrors cudnnDestroyFilterDescriptor.
	DnnDestroyFilterDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error)

	// DnnCreateConvolutionDescriptor mirrors cudnnCreateConvolutionDescriptor; pooled guest-side when optimized.
	DnnCreateConvolutionDescriptor(p *sim.Proc) (d cudalibs.Descriptor, err error)

	// DnnSetConvolutionDescriptor mirrors cudnnSetConvolutionDescriptor.
	DnnSetConvolutionDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error)

	// DnnDestroyConvolutionDescriptor mirrors cudnnDestroyConvolutionDescriptor.
	DnnDestroyConvolutionDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error)

	// DnnCreateActivationDescriptor mirrors cudnnCreateActivationDescriptor; pooled guest-side when optimized.
	DnnCreateActivationDescriptor(p *sim.Proc) (d cudalibs.Descriptor, err error)

	// DnnSetActivationDescriptor mirrors cudnnSetActivationDescriptor.
	DnnSetActivationDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error)

	// DnnDestroyActivationDescriptor mirrors cudnnDestroyActivationDescriptor.
	DnnDestroyActivationDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error)

	// DnnCreatePoolingDescriptor mirrors cudnnCreatePoolingDescriptor; pooled guest-side when optimized.
	DnnCreatePoolingDescriptor(p *sim.Proc) (d cudalibs.Descriptor, err error)

	// DnnSetPoolingDescriptor mirrors cudnnSetPoolingDescriptor.
	DnnSetPoolingDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error)

	// DnnDestroyPoolingDescriptor mirrors cudnnDestroyPoolingDescriptor.
	DnnDestroyPoolingDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error)
}

// Client implements API by remoting every call over a transport.
// Higher layers (the guest library) add localization and batching.
type Client struct {
	T remoting.Caller
}

// --- Hello ---

// HelloReq is the request message of Hello.
type HelloReq struct {
	FnID     string
	MemLimit int64
}

// Encode serializes the request.
func (m *HelloReq) Encode(e *wire.Encoder) {
	e.Str(m.FnID)
	e.I64(m.MemLimit)
}

// Decode deserializes the request.
func (m *HelloReq) Decode(d *wire.Decoder) {
	m.FnID = d.Str()
	m.MemLimit = d.I64()
}

// HelloResp is the response message of Hello.
type HelloResp struct {
}

// Encode serializes the response.
func (m *HelloResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *HelloResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendHelloCall appends an encoded Hello call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendHelloCall(e *wire.Encoder, fnID string, memLimit int64) {
	e.U16(CallHello)
	(&HelloReq{FnID: fnID, MemLimit: memLimit}).Encode(e)
}

// Hello opens a function session on the API server, declaring the function's GPU memory requirement.
func (c *Client) Hello(p *sim.Proc, fnID string, memLimit int64) (err error) {
	enc := wire.GetEncoder()
	AppendHelloCall(enc, fnID, memLimit)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- Bye ---

// ByeReq is the request message of Bye.
type ByeReq struct {
}

// Encode serializes the request.
func (m *ByeReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *ByeReq) Decode(d *wire.Decoder) {
	_ = d
}

// ByeResp is the response message of Bye.
type ByeResp struct {
}

// Encode serializes the response.
func (m *ByeResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *ByeResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendByeCall appends an encoded Bye call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendByeCall(e *wire.Encoder) {
	e.U16(CallBye)
	(&ByeReq{}).Encode(e)
}

// Bye ends the function session, releasing all of its server-side resources.
func (c *Client) Bye(p *sim.Proc) (err error) {
	enc := wire.GetEncoder()
	AppendByeCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- RegisterKernels ---

// RegisterKernelsReq is the request message of RegisterKernels.
type RegisterKernelsReq struct {
	Names []string
}

// Encode serializes the request.
func (m *RegisterKernelsReq) Encode(e *wire.Encoder) {
	e.Strs(m.Names)
}

// Decode deserializes the request.
func (m *RegisterKernelsReq) Decode(d *wire.Decoder) {
	m.Names = d.Strs()
}

// DecodeShared deserializes the request without copying: decoded
// slices alias d and are valid only until d resets. Dispatch uses it
// (its decoder outlives the backend call); backends must clone any
// shared field they retain.
func (m *RegisterKernelsReq) DecodeShared(d *wire.Decoder) {
	m.Names = d.StrsShared()
}

// RegisterKernelsResp is the response message of RegisterKernels.
type RegisterKernelsResp struct {
	Ptrs []cuda.FnPtr
}

// Encode serializes the response.
func (m *RegisterKernelsResp) Encode(e *wire.Encoder) {
	e.FnPtrs(m.Ptrs)
}

// Decode deserializes the response.
func (m *RegisterKernelsResp) Decode(d *wire.Decoder) {
	m.Ptrs = d.FnPtrs()
}

// AppendRegisterKernelsCall appends an encoded RegisterKernels call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendRegisterKernelsCall(e *wire.Encoder, names []string) {
	e.U16(CallRegisterKernels)
	(&RegisterKernelsReq{Names: names}).Encode(e)
}

// RegisterKernels sends the function's kernel symbols ahead of execution (step 2 in Fig. 2) and returns their function handles.
func (c *Client) RegisterKernels(p *sim.Proc, names []string) (ptrs []cuda.FnPtr, err error) {
	enc := wire.GetEncoder()
	AppendRegisterKernelsCall(enc, names)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp RegisterKernelsResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	ptrs = resp.Ptrs
	return
}

// --- GetDeviceCount ---

// GetDeviceCountReq is the request message of GetDeviceCount.
type GetDeviceCountReq struct {
}

// Encode serializes the request.
func (m *GetDeviceCountReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *GetDeviceCountReq) Decode(d *wire.Decoder) {
	_ = d
}

// GetDeviceCountResp is the response message of GetDeviceCount.
type GetDeviceCountResp struct {
	N int
}

// Encode serializes the response.
func (m *GetDeviceCountResp) Encode(e *wire.Encoder) {
	e.Int(m.N)
}

// Decode deserializes the response.
func (m *GetDeviceCountResp) Decode(d *wire.Decoder) {
	m.N = d.Int()
}

// AppendGetDeviceCountCall appends an encoded GetDeviceCount call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendGetDeviceCountCall(e *wire.Encoder) {
	e.U16(CallGetDeviceCount)
	(&GetDeviceCountReq{}).Encode(e)
}

// GetDeviceCount mirrors cudaGetDeviceCount; DGSF API servers always answer 1.
func (c *Client) GetDeviceCount(p *sim.Proc) (n int, err error) {
	enc := wire.GetEncoder()
	AppendGetDeviceCountCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp GetDeviceCountResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	n = resp.N
	return
}

// --- GetDeviceProperties ---

// GetDevicePropertiesReq is the request message of GetDeviceProperties.
type GetDevicePropertiesReq struct {
	Dev int
}

// Encode serializes the request.
func (m *GetDevicePropertiesReq) Encode(e *wire.Encoder) {
	e.Int(m.Dev)
}

// Decode deserializes the request.
func (m *GetDevicePropertiesReq) Decode(d *wire.Decoder) {
	m.Dev = d.Int()
}

// GetDevicePropertiesResp is the response message of GetDeviceProperties.
type GetDevicePropertiesResp struct {
	Prop cuda.DeviceProp
}

// Encode serializes the response.
func (m *GetDevicePropertiesResp) Encode(e *wire.Encoder) {
	e.Prop(m.Prop)
}

// Decode deserializes the response.
func (m *GetDevicePropertiesResp) Decode(d *wire.Decoder) {
	m.Prop = d.Prop()
}

// AppendGetDevicePropertiesCall appends an encoded GetDeviceProperties call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendGetDevicePropertiesCall(e *wire.Encoder, dev int) {
	e.U16(CallGetDeviceProperties)
	(&GetDevicePropertiesReq{Dev: dev}).Encode(e)
}

// GetDeviceProperties mirrors cudaGetDeviceProperties for the virtual device.
func (c *Client) GetDeviceProperties(p *sim.Proc, dev int) (prop cuda.DeviceProp, err error) {
	enc := wire.GetEncoder()
	AppendGetDevicePropertiesCall(enc, dev)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp GetDevicePropertiesResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	prop = resp.Prop
	return
}

// --- SetDevice ---

// SetDeviceReq is the request message of SetDevice.
type SetDeviceReq struct {
	Dev int
}

// Encode serializes the request.
func (m *SetDeviceReq) Encode(e *wire.Encoder) {
	e.Int(m.Dev)
}

// Decode deserializes the request.
func (m *SetDeviceReq) Decode(d *wire.Decoder) {
	m.Dev = d.Int()
}

// SetDeviceResp is the response message of SetDevice.
type SetDeviceResp struct {
}

// Encode serializes the response.
func (m *SetDeviceResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *SetDeviceResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendSetDeviceCall appends an encoded SetDevice call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendSetDeviceCall(e *wire.Encoder, dev int) {
	e.U16(CallSetDevice)
	(&SetDeviceReq{Dev: dev}).Encode(e)
}

// SetDevice mirrors cudaSetDevice; only virtual device 0 is valid.
func (c *Client) SetDevice(p *sim.Proc, dev int) (err error) {
	enc := wire.GetEncoder()
	AppendSetDeviceCall(enc, dev)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- GetDevice ---

// GetDeviceReq is the request message of GetDevice.
type GetDeviceReq struct {
}

// Encode serializes the request.
func (m *GetDeviceReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *GetDeviceReq) Decode(d *wire.Decoder) {
	_ = d
}

// GetDeviceResp is the response message of GetDevice.
type GetDeviceResp struct {
	Dev int
}

// Encode serializes the response.
func (m *GetDeviceResp) Encode(e *wire.Encoder) {
	e.Int(m.Dev)
}

// Decode deserializes the response.
func (m *GetDeviceResp) Decode(d *wire.Decoder) {
	m.Dev = d.Int()
}

// AppendGetDeviceCall appends an encoded GetDevice call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendGetDeviceCall(e *wire.Encoder) {
	e.U16(CallGetDevice)
	(&GetDeviceReq{}).Encode(e)
}

// GetDevice mirrors cudaGetDevice.
func (c *Client) GetDevice(p *sim.Proc) (dev int, err error) {
	enc := wire.GetEncoder()
	AppendGetDeviceCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp GetDeviceResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	dev = resp.Dev
	return
}

// --- MemGetInfo ---

// MemGetInfoReq is the request message of MemGetInfo.
type MemGetInfoReq struct {
}

// Encode serializes the request.
func (m *MemGetInfoReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *MemGetInfoReq) Decode(d *wire.Decoder) {
	_ = d
}

// MemGetInfoResp is the response message of MemGetInfo.
type MemGetInfoResp struct {
	Free  int64
	Total int64
}

// Encode serializes the response.
func (m *MemGetInfoResp) Encode(e *wire.Encoder) {
	e.I64(m.Free)
	e.I64(m.Total)
}

// Decode deserializes the response.
func (m *MemGetInfoResp) Decode(d *wire.Decoder) {
	m.Free = d.I64()
	m.Total = d.I64()
}

// AppendMemGetInfoCall appends an encoded MemGetInfo call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendMemGetInfoCall(e *wire.Encoder) {
	e.U16(CallMemGetInfo)
	(&MemGetInfoReq{}).Encode(e)
}

// MemGetInfo mirrors cudaMemGetInfo, scoped to the function's memory limit.
func (c *Client) MemGetInfo(p *sim.Proc) (free int64, total int64, err error) {
	enc := wire.GetEncoder()
	AppendMemGetInfoCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp MemGetInfoResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	free = resp.Free
	total = resp.Total
	return
}

// --- DeviceSynchronize ---

// DeviceSynchronizeReq is the request message of DeviceSynchronize.
type DeviceSynchronizeReq struct {
}

// Encode serializes the request.
func (m *DeviceSynchronizeReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *DeviceSynchronizeReq) Decode(d *wire.Decoder) {
	_ = d
}

// DeviceSynchronizeResp is the response message of DeviceSynchronize.
type DeviceSynchronizeResp struct {
}

// Encode serializes the response.
func (m *DeviceSynchronizeResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *DeviceSynchronizeResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendDeviceSynchronizeCall appends an encoded DeviceSynchronize call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDeviceSynchronizeCall(e *wire.Encoder) {
	e.U16(CallDeviceSynchronize)
	(&DeviceSynchronizeReq{}).Encode(e)
}

// DeviceSynchronize mirrors cudaDeviceSynchronize.
func (c *Client) DeviceSynchronize(p *sim.Proc) (err error) {
	enc := wire.GetEncoder()
	AppendDeviceSynchronizeCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- GetLastError ---

// GetLastErrorReq is the request message of GetLastError.
type GetLastErrorReq struct {
}

// Encode serializes the request.
func (m *GetLastErrorReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *GetLastErrorReq) Decode(d *wire.Decoder) {
	_ = d
}

// GetLastErrorResp is the response message of GetLastError.
type GetLastErrorResp struct {
	Code int
}

// Encode serializes the response.
func (m *GetLastErrorResp) Encode(e *wire.Encoder) {
	e.Int(m.Code)
}

// Decode deserializes the response.
func (m *GetLastErrorResp) Decode(d *wire.Decoder) {
	m.Code = d.Int()
}

// AppendGetLastErrorCall appends an encoded GetLastError call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendGetLastErrorCall(e *wire.Encoder) {
	e.U16(CallGetLastError)
	(&GetLastErrorReq{}).Encode(e)
}

// GetLastError mirrors cudaGetLastError; tracked guest-side.
func (c *Client) GetLastError(p *sim.Proc) (code int, err error) {
	enc := wire.GetEncoder()
	AppendGetLastErrorCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp GetLastErrorResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	code = resp.Code
	return
}

// --- DriverGetVersion ---

// DriverGetVersionReq is the request message of DriverGetVersion.
type DriverGetVersionReq struct {
}

// Encode serializes the request.
func (m *DriverGetVersionReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *DriverGetVersionReq) Decode(d *wire.Decoder) {
	_ = d
}

// DriverGetVersionResp is the response message of DriverGetVersion.
type DriverGetVersionResp struct {
	V int
}

// Encode serializes the response.
func (m *DriverGetVersionResp) Encode(e *wire.Encoder) {
	e.Int(m.V)
}

// Decode deserializes the response.
func (m *DriverGetVersionResp) Decode(d *wire.Decoder) {
	m.V = d.Int()
}

// AppendDriverGetVersionCall appends an encoded DriverGetVersion call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDriverGetVersionCall(e *wire.Encoder) {
	e.U16(CallDriverGetVersion)
	(&DriverGetVersionReq{}).Encode(e)
}

// DriverGetVersion mirrors cuDriverGetVersion; a constant, answered locally.
func (c *Client) DriverGetVersion(p *sim.Proc) (v int, err error) {
	enc := wire.GetEncoder()
	AppendDriverGetVersionCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp DriverGetVersionResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	v = resp.V
	return
}

// --- RuntimeGetVersion ---

// RuntimeGetVersionReq is the request message of RuntimeGetVersion.
type RuntimeGetVersionReq struct {
}

// Encode serializes the request.
func (m *RuntimeGetVersionReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *RuntimeGetVersionReq) Decode(d *wire.Decoder) {
	_ = d
}

// RuntimeGetVersionResp is the response message of RuntimeGetVersion.
type RuntimeGetVersionResp struct {
	V int
}

// Encode serializes the response.
func (m *RuntimeGetVersionResp) Encode(e *wire.Encoder) {
	e.Int(m.V)
}

// Decode deserializes the response.
func (m *RuntimeGetVersionResp) Decode(d *wire.Decoder) {
	m.V = d.Int()
}

// AppendRuntimeGetVersionCall appends an encoded RuntimeGetVersion call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendRuntimeGetVersionCall(e *wire.Encoder) {
	e.U16(CallRuntimeGetVersion)
	(&RuntimeGetVersionReq{}).Encode(e)
}

// RuntimeGetVersion mirrors cudaRuntimeGetVersion; a constant, answered locally.
func (c *Client) RuntimeGetVersion(p *sim.Proc) (v int, err error) {
	enc := wire.GetEncoder()
	AppendRuntimeGetVersionCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp RuntimeGetVersionResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	v = resp.V
	return
}

// --- Malloc ---

// MallocReq is the request message of Malloc.
type MallocReq struct {
	Size int64
}

// Encode serializes the request.
func (m *MallocReq) Encode(e *wire.Encoder) {
	e.I64(m.Size)
}

// Decode deserializes the request.
func (m *MallocReq) Decode(d *wire.Decoder) {
	m.Size = d.I64()
}

// MallocResp is the response message of Malloc.
type MallocResp struct {
	Ptr cuda.DevPtr
}

// Encode serializes the response.
func (m *MallocResp) Encode(e *wire.Encoder) {
	e.U64(uint64(m.Ptr))
}

// Decode deserializes the response.
func (m *MallocResp) Decode(d *wire.Decoder) {
	m.Ptr = cuda.DevPtr(d.U64())
}

// AppendMallocCall appends an encoded Malloc call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendMallocCall(e *wire.Encoder, size int64) {
	e.U16(CallMalloc)
	(&MallocReq{Size: size}).Encode(e)
}

// Malloc mirrors cudaMalloc; the API server realizes it through the low-level VMM path so migration preserves the address.
func (c *Client) Malloc(p *sim.Proc, size int64) (ptr cuda.DevPtr, err error) {
	enc := wire.GetEncoder()
	AppendMallocCall(enc, size)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp MallocResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	ptr = resp.Ptr
	return
}

// --- Free ---

// FreeReq is the request message of Free.
type FreeReq struct {
	Ptr cuda.DevPtr
}

// Encode serializes the request.
func (m *FreeReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.Ptr))
}

// Decode deserializes the request.
func (m *FreeReq) Decode(d *wire.Decoder) {
	m.Ptr = cuda.DevPtr(d.U64())
}

// FreeResp is the response message of Free.
type FreeResp struct {
}

// Encode serializes the response.
func (m *FreeResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *FreeResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendFreeCall appends an encoded Free call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendFreeCall(e *wire.Encoder, ptr cuda.DevPtr) {
	e.U16(CallFree)
	(&FreeReq{Ptr: ptr}).Encode(e)
}

// Free mirrors cudaFree.
func (c *Client) Free(p *sim.Proc, ptr cuda.DevPtr) (err error) {
	enc := wire.GetEncoder()
	AppendFreeCall(enc, ptr)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- Memset ---

// MemsetReq is the request message of Memset.
type MemsetReq struct {
	Ptr   cuda.DevPtr
	Value byte
	Size  int64
}

// Encode serializes the request.
func (m *MemsetReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.Ptr))
	e.U8(m.Value)
	e.I64(m.Size)
}

// Decode deserializes the request.
func (m *MemsetReq) Decode(d *wire.Decoder) {
	m.Ptr = cuda.DevPtr(d.U64())
	m.Value = d.U8()
	m.Size = d.I64()
}

// MemsetResp is the response message of Memset.
type MemsetResp struct {
}

// Encode serializes the response.
func (m *MemsetResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *MemsetResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendMemsetCall appends an encoded Memset call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendMemsetCall(e *wire.Encoder, ptr cuda.DevPtr, value byte, size int64) {
	e.U16(CallMemset)
	(&MemsetReq{Ptr: ptr, Value: value, Size: size}).Encode(e)
}

// Memset mirrors cudaMemset.
func (c *Client) Memset(p *sim.Proc, ptr cuda.DevPtr, value byte, size int64) (err error) {
	enc := wire.GetEncoder()
	AppendMemsetCall(enc, ptr, value, size)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- MemcpyH2D ---

// MemcpyH2DReq is the request message of MemcpyH2D.
type MemcpyH2DReq struct {
	Dst  cuda.DevPtr
	Src  gpu.HostBuffer
	Size int64
}

// Encode serializes the request.
func (m *MemcpyH2DReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.Dst))
	e.HostBuf(m.Src)
	e.I64(m.Size)
}

// Decode deserializes the request.
func (m *MemcpyH2DReq) Decode(d *wire.Decoder) {
	m.Dst = cuda.DevPtr(d.U64())
	m.Src = d.HostBuf()
	m.Size = d.I64()
}

// MemcpyH2DResp is the response message of MemcpyH2D.
type MemcpyH2DResp struct {
}

// Encode serializes the response.
func (m *MemcpyH2DResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *MemcpyH2DResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendMemcpyH2DCall appends an encoded MemcpyH2D call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendMemcpyH2DCall(e *wire.Encoder, dst cuda.DevPtr, src gpu.HostBuffer, size int64) {
	e.U16(CallMemcpyH2D)
	(&MemcpyH2DReq{Dst: dst, Src: src, Size: size}).Encode(e)
}

// MemcpyH2D mirrors cudaMemcpy(HostToDevice); the host payload rides with the request.
func (c *Client) MemcpyH2D(p *sim.Proc, dst cuda.DevPtr, src gpu.HostBuffer, size int64) (err error) {
	enc := wire.GetEncoder()
	AppendMemcpyH2DCall(enc, dst, src, size)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(size))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- MemcpyD2H ---

// MemcpyD2HReq is the request message of MemcpyD2H.
type MemcpyD2HReq struct {
	Src  cuda.DevPtr
	Size int64
}

// Encode serializes the request.
func (m *MemcpyD2HReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.Src))
	e.I64(m.Size)
}

// Decode deserializes the request.
func (m *MemcpyD2HReq) Decode(d *wire.Decoder) {
	m.Src = cuda.DevPtr(d.U64())
	m.Size = d.I64()
}

// MemcpyD2HResp is the response message of MemcpyD2H.
type MemcpyD2HResp struct {
	Buf gpu.HostBuffer
}

// Encode serializes the response.
func (m *MemcpyD2HResp) Encode(e *wire.Encoder) {
	e.HostBuf(m.Buf)
}

// Decode deserializes the response.
func (m *MemcpyD2HResp) Decode(d *wire.Decoder) {
	m.Buf = d.HostBuf()
}

// AppendMemcpyD2HCall appends an encoded MemcpyD2H call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendMemcpyD2HCall(e *wire.Encoder, src cuda.DevPtr, size int64) {
	e.U16(CallMemcpyD2H)
	(&MemcpyD2HReq{Src: src, Size: size}).Encode(e)
}

// MemcpyD2H mirrors cudaMemcpy(DeviceToHost); the device payload rides with the response.
func (c *Client) MemcpyD2H(p *sim.Proc, src cuda.DevPtr, size int64) (buf gpu.HostBuffer, err error) {
	enc := wire.GetEncoder()
	AppendMemcpyD2HCall(enc, src, size)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp MemcpyD2HResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	buf = resp.Buf
	return
}

// --- MemcpyD2D ---

// MemcpyD2DReq is the request message of MemcpyD2D.
type MemcpyD2DReq struct {
	Dst  cuda.DevPtr
	Src  cuda.DevPtr
	Size int64
}

// Encode serializes the request.
func (m *MemcpyD2DReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.Dst))
	e.U64(uint64(m.Src))
	e.I64(m.Size)
}

// Decode deserializes the request.
func (m *MemcpyD2DReq) Decode(d *wire.Decoder) {
	m.Dst = cuda.DevPtr(d.U64())
	m.Src = cuda.DevPtr(d.U64())
	m.Size = d.I64()
}

// MemcpyD2DResp is the response message of MemcpyD2D.
type MemcpyD2DResp struct {
}

// Encode serializes the response.
func (m *MemcpyD2DResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *MemcpyD2DResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendMemcpyD2DCall appends an encoded MemcpyD2D call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendMemcpyD2DCall(e *wire.Encoder, dst cuda.DevPtr, src cuda.DevPtr, size int64) {
	e.U16(CallMemcpyD2D)
	(&MemcpyD2DReq{Dst: dst, Src: src, Size: size}).Encode(e)
}

// MemcpyD2D mirrors cudaMemcpy(DeviceToDevice).
func (c *Client) MemcpyD2D(p *sim.Proc, dst cuda.DevPtr, src cuda.DevPtr, size int64) (err error) {
	enc := wire.GetEncoder()
	AppendMemcpyD2DCall(enc, dst, src, size)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- MallocHost ---

// MallocHostReq is the request message of MallocHost.
type MallocHostReq struct {
	Size int64
}

// Encode serializes the request.
func (m *MallocHostReq) Encode(e *wire.Encoder) {
	e.I64(m.Size)
}

// Decode deserializes the request.
func (m *MallocHostReq) Decode(d *wire.Decoder) {
	m.Size = d.I64()
}

// MallocHostResp is the response message of MallocHost.
type MallocHostResp struct {
	Ptr uint64
}

// Encode serializes the response.
func (m *MallocHostResp) Encode(e *wire.Encoder) {
	e.U64(m.Ptr)
}

// Decode deserializes the response.
func (m *MallocHostResp) Decode(d *wire.Decoder) {
	m.Ptr = d.U64()
}

// AppendMallocHostCall appends an encoded MallocHost call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendMallocHostCall(e *wire.Encoder, size int64) {
	e.U16(CallMallocHost)
	(&MallocHostReq{Size: size}).Encode(e)
}

// MallocHost mirrors cudaMallocHost; host-only state, fully emulated by the guest library when optimized.
func (c *Client) MallocHost(p *sim.Proc, size int64) (ptr uint64, err error) {
	enc := wire.GetEncoder()
	AppendMallocHostCall(enc, size)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp MallocHostResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	ptr = resp.Ptr
	return
}

// --- FreeHost ---

// FreeHostReq is the request message of FreeHost.
type FreeHostReq struct {
	Ptr uint64
}

// Encode serializes the request.
func (m *FreeHostReq) Encode(e *wire.Encoder) {
	e.U64(m.Ptr)
}

// Decode deserializes the request.
func (m *FreeHostReq) Decode(d *wire.Decoder) {
	m.Ptr = d.U64()
}

// FreeHostResp is the response message of FreeHost.
type FreeHostResp struct {
}

// Encode serializes the response.
func (m *FreeHostResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *FreeHostResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendFreeHostCall appends an encoded FreeHost call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendFreeHostCall(e *wire.Encoder, ptr uint64) {
	e.U16(CallFreeHost)
	(&FreeHostReq{Ptr: ptr}).Encode(e)
}

// FreeHost mirrors cudaFreeHost.
func (c *Client) FreeHost(p *sim.Proc, ptr uint64) (err error) {
	enc := wire.GetEncoder()
	AppendFreeHostCall(enc, ptr)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- PointerGetAttributes ---

// PointerGetAttributesReq is the request message of PointerGetAttributes.
type PointerGetAttributesReq struct {
	Ptr cuda.DevPtr
}

// Encode serializes the request.
func (m *PointerGetAttributesReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.Ptr))
}

// Decode deserializes the request.
func (m *PointerGetAttributesReq) Decode(d *wire.Decoder) {
	m.Ptr = cuda.DevPtr(d.U64())
}

// PointerGetAttributesResp is the response message of PointerGetAttributes.
type PointerGetAttributesResp struct {
	A cuda.PtrAttributes
}

// Encode serializes the response.
func (m *PointerGetAttributesResp) Encode(e *wire.Encoder) {
	e.Attrs(m.A)
}

// Decode deserializes the response.
func (m *PointerGetAttributesResp) Decode(d *wire.Decoder) {
	m.A = d.Attrs()
}

// AppendPointerGetAttributesCall appends an encoded PointerGetAttributes call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendPointerGetAttributesCall(e *wire.Encoder, ptr cuda.DevPtr) {
	e.U16(CallPointerGetAttributes)
	(&PointerGetAttributesReq{Ptr: ptr}).Encode(e)
}

// PointerGetAttributes mirrors cudaPointerGetAttributes; the optimized guest answers from tracked allocations.
func (c *Client) PointerGetAttributes(p *sim.Proc, ptr cuda.DevPtr) (a cuda.PtrAttributes, err error) {
	enc := wire.GetEncoder()
	AppendPointerGetAttributesCall(enc, ptr)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp PointerGetAttributesResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	a = resp.A
	return
}

// --- PushCallConfiguration ---

// PushCallConfigurationReq is the request message of PushCallConfiguration.
type PushCallConfigurationReq struct {
	Grid   [3]int
	Block  [3]int
	Stream cuda.StreamHandle
}

// Encode serializes the request.
func (m *PushCallConfigurationReq) Encode(e *wire.Encoder) {
	e.Vec3(m.Grid)
	e.Vec3(m.Block)
	e.U64(uint64(m.Stream))
}

// Decode deserializes the request.
func (m *PushCallConfigurationReq) Decode(d *wire.Decoder) {
	m.Grid = d.Vec3()
	m.Block = d.Vec3()
	m.Stream = cuda.StreamHandle(d.U64())
}

// PushCallConfigurationResp is the response message of PushCallConfiguration.
type PushCallConfigurationResp struct {
}

// Encode serializes the response.
func (m *PushCallConfigurationResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *PushCallConfigurationResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendPushCallConfigurationCall appends an encoded PushCallConfiguration call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendPushCallConfigurationCall(e *wire.Encoder, grid [3]int, block [3]int, stream cuda.StreamHandle) {
	e.U16(CallPushCallConfiguration)
	(&PushCallConfigurationReq{Grid: grid, Block: block, Stream: stream}).Encode(e)
}

// PushCallConfiguration mirrors __cudaPushCallConfiguration; piggybacked onto the launch when optimized.
func (c *Client) PushCallConfiguration(p *sim.Proc, grid [3]int, block [3]int, stream cuda.StreamHandle) (err error) {
	enc := wire.GetEncoder()
	AppendPushCallConfigurationCall(enc, grid, block, stream)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- PopCallConfiguration ---

// PopCallConfigurationReq is the request message of PopCallConfiguration.
type PopCallConfigurationReq struct {
}

// Encode serializes the request.
func (m *PopCallConfigurationReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *PopCallConfigurationReq) Decode(d *wire.Decoder) {
	_ = d
}

// PopCallConfigurationResp is the response message of PopCallConfiguration.
type PopCallConfigurationResp struct {
}

// Encode serializes the response.
func (m *PopCallConfigurationResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *PopCallConfigurationResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendPopCallConfigurationCall appends an encoded PopCallConfiguration call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendPopCallConfigurationCall(e *wire.Encoder) {
	e.U16(CallPopCallConfiguration)
	(&PopCallConfigurationReq{}).Encode(e)
}

// PopCallConfiguration mirrors __cudaPopCallConfiguration.
func (c *Client) PopCallConfiguration(p *sim.Proc) (err error) {
	enc := wire.GetEncoder()
	AppendPopCallConfigurationCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- LaunchKernel ---

// LaunchKernelReq is the request message of LaunchKernel.
type LaunchKernelReq struct {
	LP cuda.LaunchParams
}

// Encode serializes the request.
func (m *LaunchKernelReq) Encode(e *wire.Encoder) {
	e.Launch(m.LP)
}

// Decode deserializes the request.
func (m *LaunchKernelReq) Decode(d *wire.Decoder) {
	m.LP = d.Launch()
}

// DecodeShared deserializes the request without copying: decoded
// slices alias d and are valid only until d resets. Dispatch uses it
// (its decoder outlives the backend call); backends must clone any
// shared field they retain.
func (m *LaunchKernelReq) DecodeShared(d *wire.Decoder) {
	m.LP = d.LaunchShared()
}

// LaunchKernelResp is the response message of LaunchKernel.
type LaunchKernelResp struct {
}

// Encode serializes the response.
func (m *LaunchKernelResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *LaunchKernelResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendLaunchKernelCall appends an encoded LaunchKernel call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendLaunchKernelCall(e *wire.Encoder, lP cuda.LaunchParams) {
	e.U16(CallLaunchKernel)
	(&LaunchKernelReq{LP: lP}).Encode(e)
}

// LaunchKernel mirrors cudaLaunchKernel; asynchronous, so batchable — a guest library that defers the launch borrows LP.Mutates until its next flush or fence.
func (c *Client) LaunchKernel(p *sim.Proc, lP cuda.LaunchParams) (err error) {
	enc := wire.GetEncoder()
	AppendLaunchKernelCall(enc, lP)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- StreamCreate ---

// StreamCreateReq is the request message of StreamCreate.
type StreamCreateReq struct {
}

// Encode serializes the request.
func (m *StreamCreateReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *StreamCreateReq) Decode(d *wire.Decoder) {
	_ = d
}

// StreamCreateResp is the response message of StreamCreate.
type StreamCreateResp struct {
	H cuda.StreamHandle
}

// Encode serializes the response.
func (m *StreamCreateResp) Encode(e *wire.Encoder) {
	e.U64(uint64(m.H))
}

// Decode deserializes the response.
func (m *StreamCreateResp) Decode(d *wire.Decoder) {
	m.H = cuda.StreamHandle(d.U64())
}

// AppendStreamCreateCall appends an encoded StreamCreate call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendStreamCreateCall(e *wire.Encoder) {
	e.U16(CallStreamCreate)
	(&StreamCreateReq{}).Encode(e)
}

// StreamCreate mirrors cudaStreamCreate; the server pre-replicates the stream in every context it holds (§V-D).
func (c *Client) StreamCreate(p *sim.Proc) (h cuda.StreamHandle, err error) {
	enc := wire.GetEncoder()
	AppendStreamCreateCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp StreamCreateResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	h = resp.H
	return
}

// --- StreamDestroy ---

// StreamDestroyReq is the request message of StreamDestroy.
type StreamDestroyReq struct {
	H cuda.StreamHandle
}

// Encode serializes the request.
func (m *StreamDestroyReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.H))
}

// Decode deserializes the request.
func (m *StreamDestroyReq) Decode(d *wire.Decoder) {
	m.H = cuda.StreamHandle(d.U64())
}

// StreamDestroyResp is the response message of StreamDestroy.
type StreamDestroyResp struct {
}

// Encode serializes the response.
func (m *StreamDestroyResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *StreamDestroyResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendStreamDestroyCall appends an encoded StreamDestroy call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendStreamDestroyCall(e *wire.Encoder, h cuda.StreamHandle) {
	e.U16(CallStreamDestroy)
	(&StreamDestroyReq{H: h}).Encode(e)
}

// StreamDestroy mirrors cudaStreamDestroy.
func (c *Client) StreamDestroy(p *sim.Proc, h cuda.StreamHandle) (err error) {
	enc := wire.GetEncoder()
	AppendStreamDestroyCall(enc, h)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- StreamSynchronize ---

// StreamSynchronizeReq is the request message of StreamSynchronize.
type StreamSynchronizeReq struct {
	H cuda.StreamHandle
}

// Encode serializes the request.
func (m *StreamSynchronizeReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.H))
}

// Decode deserializes the request.
func (m *StreamSynchronizeReq) Decode(d *wire.Decoder) {
	m.H = cuda.StreamHandle(d.U64())
}

// StreamSynchronizeResp is the response message of StreamSynchronize.
type StreamSynchronizeResp struct {
}

// Encode serializes the response.
func (m *StreamSynchronizeResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *StreamSynchronizeResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendStreamSynchronizeCall appends an encoded StreamSynchronize call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendStreamSynchronizeCall(e *wire.Encoder, h cuda.StreamHandle) {
	e.U16(CallStreamSynchronize)
	(&StreamSynchronizeReq{H: h}).Encode(e)
}

// StreamSynchronize mirrors cudaStreamSynchronize.
func (c *Client) StreamSynchronize(p *sim.Proc, h cuda.StreamHandle) (err error) {
	enc := wire.GetEncoder()
	AppendStreamSynchronizeCall(enc, h)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- EventCreate ---

// EventCreateReq is the request message of EventCreate.
type EventCreateReq struct {
}

// Encode serializes the request.
func (m *EventCreateReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *EventCreateReq) Decode(d *wire.Decoder) {
	_ = d
}

// EventCreateResp is the response message of EventCreate.
type EventCreateResp struct {
	H cuda.EventHandle
}

// Encode serializes the response.
func (m *EventCreateResp) Encode(e *wire.Encoder) {
	e.U64(uint64(m.H))
}

// Decode deserializes the response.
func (m *EventCreateResp) Decode(d *wire.Decoder) {
	m.H = cuda.EventHandle(d.U64())
}

// AppendEventCreateCall appends an encoded EventCreate call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendEventCreateCall(e *wire.Encoder) {
	e.U16(CallEventCreate)
	(&EventCreateReq{}).Encode(e)
}

// EventCreate mirrors cudaEventCreate.
func (c *Client) EventCreate(p *sim.Proc) (h cuda.EventHandle, err error) {
	enc := wire.GetEncoder()
	AppendEventCreateCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp EventCreateResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	h = resp.H
	return
}

// --- EventDestroy ---

// EventDestroyReq is the request message of EventDestroy.
type EventDestroyReq struct {
	H cuda.EventHandle
}

// Encode serializes the request.
func (m *EventDestroyReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.H))
}

// Decode deserializes the request.
func (m *EventDestroyReq) Decode(d *wire.Decoder) {
	m.H = cuda.EventHandle(d.U64())
}

// EventDestroyResp is the response message of EventDestroy.
type EventDestroyResp struct {
}

// Encode serializes the response.
func (m *EventDestroyResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *EventDestroyResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendEventDestroyCall appends an encoded EventDestroy call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendEventDestroyCall(e *wire.Encoder, h cuda.EventHandle) {
	e.U16(CallEventDestroy)
	(&EventDestroyReq{H: h}).Encode(e)
}

// EventDestroy mirrors cudaEventDestroy.
func (c *Client) EventDestroy(p *sim.Proc, h cuda.EventHandle) (err error) {
	enc := wire.GetEncoder()
	AppendEventDestroyCall(enc, h)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- EventRecord ---

// EventRecordReq is the request message of EventRecord.
type EventRecordReq struct {
	H      cuda.EventHandle
	Stream cuda.StreamHandle
}

// Encode serializes the request.
func (m *EventRecordReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.H))
	e.U64(uint64(m.Stream))
}

// Decode deserializes the request.
func (m *EventRecordReq) Decode(d *wire.Decoder) {
	m.H = cuda.EventHandle(d.U64())
	m.Stream = cuda.StreamHandle(d.U64())
}

// EventRecordResp is the response message of EventRecord.
type EventRecordResp struct {
}

// Encode serializes the response.
func (m *EventRecordResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *EventRecordResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendEventRecordCall appends an encoded EventRecord call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendEventRecordCall(e *wire.Encoder, h cuda.EventHandle, stream cuda.StreamHandle) {
	e.U16(CallEventRecord)
	(&EventRecordReq{H: h, Stream: stream}).Encode(e)
}

// EventRecord mirrors cudaEventRecord.
func (c *Client) EventRecord(p *sim.Proc, h cuda.EventHandle, stream cuda.StreamHandle) (err error) {
	enc := wire.GetEncoder()
	AppendEventRecordCall(enc, h, stream)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- EventSynchronize ---

// EventSynchronizeReq is the request message of EventSynchronize.
type EventSynchronizeReq struct {
	H cuda.EventHandle
}

// Encode serializes the request.
func (m *EventSynchronizeReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.H))
}

// Decode deserializes the request.
func (m *EventSynchronizeReq) Decode(d *wire.Decoder) {
	m.H = cuda.EventHandle(d.U64())
}

// EventSynchronizeResp is the response message of EventSynchronize.
type EventSynchronizeResp struct {
}

// Encode serializes the response.
func (m *EventSynchronizeResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *EventSynchronizeResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendEventSynchronizeCall appends an encoded EventSynchronize call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendEventSynchronizeCall(e *wire.Encoder, h cuda.EventHandle) {
	e.U16(CallEventSynchronize)
	(&EventSynchronizeReq{H: h}).Encode(e)
}

// EventSynchronize mirrors cudaEventSynchronize.
func (c *Client) EventSynchronize(p *sim.Proc, h cuda.EventHandle) (err error) {
	enc := wire.GetEncoder()
	AppendEventSynchronizeCall(enc, h)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- EventElapsed ---

// EventElapsedReq is the request message of EventElapsed.
type EventElapsedReq struct {
	Start cuda.EventHandle
	End   cuda.EventHandle
}

// Encode serializes the request.
func (m *EventElapsedReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.Start))
	e.U64(uint64(m.End))
}

// Decode deserializes the request.
func (m *EventElapsedReq) Decode(d *wire.Decoder) {
	m.Start = cuda.EventHandle(d.U64())
	m.End = cuda.EventHandle(d.U64())
}

// EventElapsedResp is the response message of EventElapsed.
type EventElapsedResp struct {
	D time.Duration
}

// Encode serializes the response.
func (m *EventElapsedResp) Encode(e *wire.Encoder) {
	e.Dur(m.D)
}

// Decode deserializes the response.
func (m *EventElapsedResp) Decode(d *wire.Decoder) {
	m.D = d.Dur()
}

// AppendEventElapsedCall appends an encoded EventElapsed call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendEventElapsedCall(e *wire.Encoder, start cuda.EventHandle, end cuda.EventHandle) {
	e.U16(CallEventElapsed)
	(&EventElapsedReq{Start: start, End: end}).Encode(e)
}

// EventElapsed mirrors cudaEventElapsedTime.
func (c *Client) EventElapsed(p *sim.Proc, start cuda.EventHandle, end cuda.EventHandle) (d time.Duration, err error) {
	enc := wire.GetEncoder()
	AppendEventElapsedCall(enc, start, end)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp EventElapsedResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	d = resp.D
	return
}

// --- DnnCreate ---

// DnnCreateReq is the request message of DnnCreate.
type DnnCreateReq struct {
}

// Encode serializes the request.
func (m *DnnCreateReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *DnnCreateReq) Decode(d *wire.Decoder) {
	_ = d
}

// DnnCreateResp is the response message of DnnCreate.
type DnnCreateResp struct {
	H cudalibs.DNNHandle
}

// Encode serializes the response.
func (m *DnnCreateResp) Encode(e *wire.Encoder) {
	e.U64(uint64(m.H))
}

// Decode deserializes the response.
func (m *DnnCreateResp) Decode(d *wire.Decoder) {
	m.H = cudalibs.DNNHandle(d.U64())
}

// AppendDnnCreateCall appends an encoded DnnCreate call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnCreateCall(e *wire.Encoder) {
	e.U16(CallDnnCreate)
	(&DnnCreateReq{}).Encode(e)
}

// DnnCreate mirrors cudnnCreate; served from the API server's pre-created handle pool when optimized (§V-C).
func (c *Client) DnnCreate(p *sim.Proc) (h cudalibs.DNNHandle, err error) {
	enc := wire.GetEncoder()
	AppendDnnCreateCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp DnnCreateResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	h = resp.H
	return
}

// --- DnnDestroy ---

// DnnDestroyReq is the request message of DnnDestroy.
type DnnDestroyReq struct {
	H cudalibs.DNNHandle
}

// Encode serializes the request.
func (m *DnnDestroyReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.H))
}

// Decode deserializes the request.
func (m *DnnDestroyReq) Decode(d *wire.Decoder) {
	m.H = cudalibs.DNNHandle(d.U64())
}

// DnnDestroyResp is the response message of DnnDestroy.
type DnnDestroyResp struct {
}

// Encode serializes the response.
func (m *DnnDestroyResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *DnnDestroyResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendDnnDestroyCall appends an encoded DnnDestroy call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnDestroyCall(e *wire.Encoder, h cudalibs.DNNHandle) {
	e.U16(CallDnnDestroy)
	(&DnnDestroyReq{H: h}).Encode(e)
}

// DnnDestroy mirrors cudnnDestroy.
func (c *Client) DnnDestroy(p *sim.Proc, h cudalibs.DNNHandle) (err error) {
	enc := wire.GetEncoder()
	AppendDnnDestroyCall(enc, h)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- DnnSetStream ---

// DnnSetStreamReq is the request message of DnnSetStream.
type DnnSetStreamReq struct {
	H      cudalibs.DNNHandle
	Stream cuda.StreamHandle
}

// Encode serializes the request.
func (m *DnnSetStreamReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.H))
	e.U64(uint64(m.Stream))
}

// Decode deserializes the request.
func (m *DnnSetStreamReq) Decode(d *wire.Decoder) {
	m.H = cudalibs.DNNHandle(d.U64())
	m.Stream = cuda.StreamHandle(d.U64())
}

// DnnSetStreamResp is the response message of DnnSetStream.
type DnnSetStreamResp struct {
}

// Encode serializes the response.
func (m *DnnSetStreamResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *DnnSetStreamResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendDnnSetStreamCall appends an encoded DnnSetStream call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnSetStreamCall(e *wire.Encoder, h cudalibs.DNNHandle, stream cuda.StreamHandle) {
	e.U16(CallDnnSetStream)
	(&DnnSetStreamReq{H: h, Stream: stream}).Encode(e)
}

// DnnSetStream mirrors cudnnSetStream.
func (c *Client) DnnSetStream(p *sim.Proc, h cudalibs.DNNHandle, stream cuda.StreamHandle) (err error) {
	enc := wire.GetEncoder()
	AppendDnnSetStreamCall(enc, h, stream)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- DnnGetConvolutionWorkspaceSize ---

// DnnGetConvolutionWorkspaceSizeReq is the request message of DnnGetConvolutionWorkspaceSize.
type DnnGetConvolutionWorkspaceSizeReq struct {
	D cudalibs.Descriptor
}

// Encode serializes the request.
func (m *DnnGetConvolutionWorkspaceSizeReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.D))
}

// Decode deserializes the request.
func (m *DnnGetConvolutionWorkspaceSizeReq) Decode(d *wire.Decoder) {
	m.D = cudalibs.Descriptor(d.U64())
}

// DnnGetConvolutionWorkspaceSizeResp is the response message of DnnGetConvolutionWorkspaceSize.
type DnnGetConvolutionWorkspaceSizeResp struct {
	Size int64
}

// Encode serializes the response.
func (m *DnnGetConvolutionWorkspaceSizeResp) Encode(e *wire.Encoder) {
	e.I64(m.Size)
}

// Decode deserializes the response.
func (m *DnnGetConvolutionWorkspaceSizeResp) Decode(d *wire.Decoder) {
	m.Size = d.I64()
}

// AppendDnnGetConvolutionWorkspaceSizeCall appends an encoded DnnGetConvolutionWorkspaceSize call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnGetConvolutionWorkspaceSizeCall(e *wire.Encoder, d cudalibs.Descriptor) {
	e.U16(CallDnnGetConvolutionWorkspaceSize)
	(&DnnGetConvolutionWorkspaceSizeReq{D: d}).Encode(e)
}

// DnnGetConvolutionWorkspaceSize mirrors cudnnGetConvolutionForwardWorkspaceSize.
func (c *Client) DnnGetConvolutionWorkspaceSize(p *sim.Proc, d cudalibs.Descriptor) (size int64, err error) {
	enc := wire.GetEncoder()
	AppendDnnGetConvolutionWorkspaceSizeCall(enc, d)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp DnnGetConvolutionWorkspaceSizeResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	size = resp.Size
	return
}

// --- DnnForward ---

// DnnForwardReq is the request message of DnnForward.
type DnnForwardReq struct {
	H     cudalibs.DNNHandle
	Op    string
	Dur   time.Duration
	Bufs  []cuda.DevPtr
	Descs []uint64
}

// Encode serializes the request.
func (m *DnnForwardReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.H))
	e.Str(m.Op)
	e.Dur(m.Dur)
	e.DevPtrs(m.Bufs)
	e.U64s(m.Descs)
}

// Decode deserializes the request.
func (m *DnnForwardReq) Decode(d *wire.Decoder) {
	m.H = cudalibs.DNNHandle(d.U64())
	m.Op = d.Str()
	m.Dur = d.Dur()
	m.Bufs = d.DevPtrs()
	m.Descs = d.U64s()
}

// DecodeShared deserializes the request without copying: decoded
// slices alias d and are valid only until d resets. Dispatch uses it
// (its decoder outlives the backend call); backends must clone any
// shared field they retain.
func (m *DnnForwardReq) DecodeShared(d *wire.Decoder) {
	m.H = cudalibs.DNNHandle(d.U64())
	m.Op = d.StrShared()
	m.Dur = d.Dur()
	m.Bufs = d.DevPtrsShared()
	m.Descs = d.U64s()
}

// DnnForwardResp is the response message of DnnForward.
type DnnForwardResp struct {
}

// Encode serializes the response.
func (m *DnnForwardResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *DnnForwardResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendDnnForwardCall appends an encoded DnnForward call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnForwardCall(e *wire.Encoder, h cudalibs.DNNHandle, op string, dur time.Duration, bufs []cuda.DevPtr, descs []uint64) {
	e.U16(CallDnnForward)
	(&DnnForwardReq{H: h, Op: op, Dur: dur, Bufs: bufs, Descs: descs}).Encode(e)
}

// DnnForward runs a cuDNN compute primitive (convolution, batch-norm, ...) of the given nominal duration.
func (c *Client) DnnForward(p *sim.Proc, h cudalibs.DNNHandle, op string, dur time.Duration, bufs []cuda.DevPtr, descs []uint64) (err error) {
	enc := wire.GetEncoder()
	AppendDnnForwardCall(enc, h, op, dur, bufs, descs)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- BlasCreate ---

// BlasCreateReq is the request message of BlasCreate.
type BlasCreateReq struct {
}

// Encode serializes the request.
func (m *BlasCreateReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *BlasCreateReq) Decode(d *wire.Decoder) {
	_ = d
}

// BlasCreateResp is the response message of BlasCreate.
type BlasCreateResp struct {
	H cudalibs.BLASHandle
}

// Encode serializes the response.
func (m *BlasCreateResp) Encode(e *wire.Encoder) {
	e.U64(uint64(m.H))
}

// Decode deserializes the response.
func (m *BlasCreateResp) Decode(d *wire.Decoder) {
	m.H = cudalibs.BLASHandle(d.U64())
}

// AppendBlasCreateCall appends an encoded BlasCreate call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendBlasCreateCall(e *wire.Encoder) {
	e.U16(CallBlasCreate)
	(&BlasCreateReq{}).Encode(e)
}

// BlasCreate mirrors cublasCreate; pooled like cuDNN handles.
func (c *Client) BlasCreate(p *sim.Proc) (h cudalibs.BLASHandle, err error) {
	enc := wire.GetEncoder()
	AppendBlasCreateCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp BlasCreateResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	h = resp.H
	return
}

// --- BlasDestroy ---

// BlasDestroyReq is the request message of BlasDestroy.
type BlasDestroyReq struct {
	H cudalibs.BLASHandle
}

// Encode serializes the request.
func (m *BlasDestroyReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.H))
}

// Decode deserializes the request.
func (m *BlasDestroyReq) Decode(d *wire.Decoder) {
	m.H = cudalibs.BLASHandle(d.U64())
}

// BlasDestroyResp is the response message of BlasDestroy.
type BlasDestroyResp struct {
}

// Encode serializes the response.
func (m *BlasDestroyResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *BlasDestroyResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendBlasDestroyCall appends an encoded BlasDestroy call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendBlasDestroyCall(e *wire.Encoder, h cudalibs.BLASHandle) {
	e.U16(CallBlasDestroy)
	(&BlasDestroyReq{H: h}).Encode(e)
}

// BlasDestroy mirrors cublasDestroy.
func (c *Client) BlasDestroy(p *sim.Proc, h cudalibs.BLASHandle) (err error) {
	enc := wire.GetEncoder()
	AppendBlasDestroyCall(enc, h)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- BlasSetStream ---

// BlasSetStreamReq is the request message of BlasSetStream.
type BlasSetStreamReq struct {
	H      cudalibs.BLASHandle
	Stream cuda.StreamHandle
}

// Encode serializes the request.
func (m *BlasSetStreamReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.H))
	e.U64(uint64(m.Stream))
}

// Decode deserializes the request.
func (m *BlasSetStreamReq) Decode(d *wire.Decoder) {
	m.H = cudalibs.BLASHandle(d.U64())
	m.Stream = cuda.StreamHandle(d.U64())
}

// BlasSetStreamResp is the response message of BlasSetStream.
type BlasSetStreamResp struct {
}

// Encode serializes the response.
func (m *BlasSetStreamResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *BlasSetStreamResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendBlasSetStreamCall appends an encoded BlasSetStream call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendBlasSetStreamCall(e *wire.Encoder, h cudalibs.BLASHandle, stream cuda.StreamHandle) {
	e.U16(CallBlasSetStream)
	(&BlasSetStreamReq{H: h, Stream: stream}).Encode(e)
}

// BlasSetStream mirrors cublasSetStream.
func (c *Client) BlasSetStream(p *sim.Proc, h cudalibs.BLASHandle, stream cuda.StreamHandle) (err error) {
	enc := wire.GetEncoder()
	AppendBlasSetStreamCall(enc, h, stream)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- BlasGemm ---

// BlasGemmReq is the request message of BlasGemm.
type BlasGemmReq struct {
	H    cudalibs.BLASHandle
	Dur  time.Duration
	Bufs []cuda.DevPtr
}

// Encode serializes the request.
func (m *BlasGemmReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.H))
	e.Dur(m.Dur)
	e.DevPtrs(m.Bufs)
}

// Decode deserializes the request.
func (m *BlasGemmReq) Decode(d *wire.Decoder) {
	m.H = cudalibs.BLASHandle(d.U64())
	m.Dur = d.Dur()
	m.Bufs = d.DevPtrs()
}

// DecodeShared deserializes the request without copying: decoded
// slices alias d and are valid only until d resets. Dispatch uses it
// (its decoder outlives the backend call); backends must clone any
// shared field they retain.
func (m *BlasGemmReq) DecodeShared(d *wire.Decoder) {
	m.H = cudalibs.BLASHandle(d.U64())
	m.Dur = d.Dur()
	m.Bufs = d.DevPtrsShared()
}

// BlasGemmResp is the response message of BlasGemm.
type BlasGemmResp struct {
}

// Encode serializes the response.
func (m *BlasGemmResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *BlasGemmResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendBlasGemmCall appends an encoded BlasGemm call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendBlasGemmCall(e *wire.Encoder, h cudalibs.BLASHandle, dur time.Duration, bufs []cuda.DevPtr) {
	e.U16(CallBlasGemm)
	(&BlasGemmReq{H: h, Dur: dur, Bufs: bufs}).Encode(e)
}

// BlasGemm mirrors cublasSgemm with the given nominal duration.
func (c *Client) BlasGemm(p *sim.Proc, h cudalibs.BLASHandle, dur time.Duration, bufs []cuda.DevPtr) (err error) {
	enc := wire.GetEncoder()
	AppendBlasGemmCall(enc, h, dur, bufs)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- ModelAttach ---

// ModelAttachReq is the request message of ModelAttach.
type ModelAttachReq struct {
}

// Encode serializes the request.
func (m *ModelAttachReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *ModelAttachReq) Decode(d *wire.Decoder) {
	_ = d
}

// ModelAttachResp is the response message of ModelAttach.
type ModelAttachResp struct {
	Ptr  cuda.DevPtr
	Size int64
	Tier int
}

// Encode serializes the response.
func (m *ModelAttachResp) Encode(e *wire.Encoder) {
	e.U64(uint64(m.Ptr))
	e.I64(m.Size)
	e.Int(m.Tier)
}

// Decode deserializes the response.
func (m *ModelAttachResp) Decode(d *wire.Decoder) {
	m.Ptr = cuda.DevPtr(d.U64())
	m.Size = d.I64()
	m.Tier = d.Int()
}

// AppendModelAttachCall appends an encoded ModelAttach call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendModelAttachCall(e *wire.Encoder) {
	e.U16(CallModelAttach)
	(&ModelAttachReq{}).Encode(e)
}

// ModelAttach asks the API server for a cached copy of the session function's model working set; Tier reports where it was found (0 miss, 1 host-staged, 2 GPU-resident) and Ptr/Size are zero on a miss.
func (c *Client) ModelAttach(p *sim.Proc) (ptr cuda.DevPtr, size int64, tier int, err error) {
	enc := wire.GetEncoder()
	AppendModelAttachCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp ModelAttachResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	ptr = resp.Ptr
	size = resp.Size
	tier = resp.Tier
	return
}

// --- ModelPersist ---

// ModelPersistReq is the request message of ModelPersist.
type ModelPersistReq struct {
	Ptr cuda.DevPtr
}

// Encode serializes the request.
func (m *ModelPersistReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.Ptr))
}

// Decode deserializes the request.
func (m *ModelPersistReq) Decode(d *wire.Decoder) {
	m.Ptr = cuda.DevPtr(d.U64())
}

// ModelPersistResp is the response message of ModelPersist.
type ModelPersistResp struct {
}

// Encode serializes the response.
func (m *ModelPersistResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *ModelPersistResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendModelPersistCall appends an encoded ModelPersist call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendModelPersistCall(e *wire.Encoder, ptr cuda.DevPtr) {
	e.U16(CallModelPersist)
	(&ModelPersistReq{Ptr: ptr}).Encode(e)
}

// ModelPersist marks a session allocation as the function's model working set, a candidate for retention in the model cache when the session ends; without a cache it behaves like cudaFree.
func (c *Client) ModelPersist(p *sim.Proc, ptr cuda.DevPtr) (err error) {
	enc := wire.GetEncoder()
	AppendModelPersistCall(enc, ptr)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- MemExport ---

// MemExportReq is the request message of MemExport.
type MemExportReq struct {
	Ptr cuda.DevPtr
	Tag string
}

// Encode serializes the request.
func (m *MemExportReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.Ptr))
	e.Str(m.Tag)
}

// Decode deserializes the request.
func (m *MemExportReq) Decode(d *wire.Decoder) {
	m.Ptr = cuda.DevPtr(d.U64())
	m.Tag = d.Str()
}

// MemExportResp is the response message of MemExport.
type MemExportResp struct {
	Export uint64
	Size   int64
}

// Encode serializes the response.
func (m *MemExportResp) Encode(e *wire.Encoder) {
	e.U64(m.Export)
	e.I64(m.Size)
}

// Decode deserializes the response.
func (m *MemExportResp) Decode(d *wire.Decoder) {
	m.Export = d.U64()
	m.Size = d.I64()
}

// AppendMemExportCall appends an encoded MemExport call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendMemExportCall(e *wire.Encoder, ptr cuda.DevPtr, tag string) {
	e.U16(CallMemExport)
	(&MemExportReq{Ptr: ptr, Tag: tag}).Encode(e)
}

// MemExport detaches a session allocation and publishes it on the GPU server's data plane under a fabric-wide export ID; ownership moves out of the session (like ModelPersist, it is a state-removing call) and the tensor stays device-resident awaiting a consumer.
func (c *Client) MemExport(p *sim.Proc, ptr cuda.DevPtr, tag string) (export uint64, size int64, err error) {
	enc := wire.GetEncoder()
	AppendMemExportCall(enc, ptr, tag)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp MemExportResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	export = resp.Export
	size = resp.Size
	return
}

// --- MemImport ---

// MemImportReq is the request message of MemImport.
type MemImportReq struct {
	Export uint64
}

// Encode serializes the request.
func (m *MemImportReq) Encode(e *wire.Encoder) {
	e.U64(m.Export)
}

// Decode deserializes the request.
func (m *MemImportReq) Decode(d *wire.Decoder) {
	m.Export = d.U64()
}

// MemImportResp is the response message of MemImport.
type MemImportResp struct {
	Ptr  cuda.DevPtr
	Size int64
}

// Encode serializes the response.
func (m *MemImportResp) Encode(e *wire.Encoder) {
	e.U64(uint64(m.Ptr))
	e.I64(m.Size)
}

// Decode deserializes the response.
func (m *MemImportResp) Decode(d *wire.Decoder) {
	m.Ptr = cuda.DevPtr(d.U64())
	m.Size = d.I64()
}

// AppendMemImportCall appends an encoded MemImport call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendMemImportCall(e *wire.Encoder, export uint64) {
	e.U16(CallMemImport)
	(&MemImportReq{Export: export}).Encode(e)
}

// MemImport maps an export published by another API server on the same GPU server into the session: a zero-copy VMM remap when producer and consumer share a device, a D2D clone across devices of one machine; fails for exports on other GPU servers (use PeerCopy).
func (c *Client) MemImport(p *sim.Proc, export uint64) (ptr cuda.DevPtr, size int64, err error) {
	enc := wire.GetEncoder()
	AppendMemImportCall(enc, export)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp MemImportResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	ptr = resp.Ptr
	size = resp.Size
	return
}

// --- PeerCopy ---

// PeerCopyReq is the request message of PeerCopy.
type PeerCopyReq struct {
	Export uint64
}

// Encode serializes the request.
func (m *PeerCopyReq) Encode(e *wire.Encoder) {
	e.U64(m.Export)
}

// Decode deserializes the request.
func (m *PeerCopyReq) Decode(d *wire.Decoder) {
	m.Export = d.U64()
}

// PeerCopyResp is the response message of PeerCopy.
type PeerCopyResp struct {
	Ptr  cuda.DevPtr
	Size int64
}

// Encode serializes the response.
func (m *PeerCopyResp) Encode(e *wire.Encoder) {
	e.U64(uint64(m.Ptr))
	e.I64(m.Size)
}

// Decode deserializes the response.
func (m *PeerCopyResp) Decode(d *wire.Decoder) {
	m.Ptr = cuda.DevPtr(d.U64())
	m.Size = d.I64()
}

// AppendPeerCopyCall appends an encoded PeerCopy call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendPeerCopyCall(e *wire.Encoder, export uint64) {
	e.U16(CallPeerCopy)
	(&PeerCopyReq{Export: export}).Encode(e)
}

// PeerCopy pulls an export from another GPU server over the bandwidth-modeled data-plane fabric into a fresh session allocation, consuming the export; degrades to MemImport semantics when the export turns out to be local.
func (c *Client) PeerCopy(p *sim.Proc, export uint64) (ptr cuda.DevPtr, size int64, err error) {
	enc := wire.GetEncoder()
	AppendPeerCopyCall(enc, export)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp PeerCopyResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	ptr = resp.Ptr
	size = resp.Size
	return
}

// --- ModelBroadcast ---

// ModelBroadcastReq is the request message of ModelBroadcast.
type ModelBroadcastReq struct {
}

// Encode serializes the request.
func (m *ModelBroadcastReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *ModelBroadcastReq) Decode(d *wire.Decoder) {
	_ = d
}

// ModelBroadcastResp is the response message of ModelBroadcast.
type ModelBroadcastResp struct {
	Ptr  cuda.DevPtr
	Size int64
	Src  int
}

// Encode serializes the response.
func (m *ModelBroadcastResp) Encode(e *wire.Encoder) {
	e.U64(uint64(m.Ptr))
	e.I64(m.Size)
	e.Int(m.Src)
}

// Decode deserializes the response.
func (m *ModelBroadcastResp) Decode(d *wire.Decoder) {
	m.Ptr = cuda.DevPtr(d.U64())
	m.Size = d.I64()
	m.Src = d.Int()
}

// AppendModelBroadcastCall appends an encoded ModelBroadcast call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendModelBroadcastCall(e *wire.Encoder) {
	e.U16(CallModelBroadcast)
	(&ModelBroadcastReq{}).Encode(e)
}

// ModelBroadcast one-to-many model fan-out: the first caller per GPU server pays a single host-staged read and becomes the broadcast source, later callers clone it device-to-device; Src reports the path (0 miss, 1 host seed, 2 device clone) and Ptr/Size are zero on a miss.
func (c *Client) ModelBroadcast(p *sim.Proc) (ptr cuda.DevPtr, size int64, src int, err error) {
	enc := wire.GetEncoder()
	AppendModelBroadcastCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp ModelBroadcastResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	ptr = resp.Ptr
	size = resp.Size
	src = resp.Src
	return
}

// --- MemWrite ---

// MemWriteReq is the request message of MemWrite.
type MemWriteReq struct {
	Dst  cuda.DevPtr
	Data []byte
}

// Encode serializes the request; Data is the frame's bulk region.
func (m *MemWriteReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.Dst))
}

// Decode deserializes the request.
func (m *MemWriteReq) Decode(d *wire.Decoder) {
	m.Dst = cuda.DevPtr(d.U64())
}

// MemWriteResp is the response message of MemWrite.
type MemWriteResp struct {
}

// Encode serializes the response.
func (m *MemWriteResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *MemWriteResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendMemWriteCall appends an encoded MemWrite call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendMemWriteCall(e *wire.Encoder, dst cuda.DevPtr) {
	e.U16(CallMemWrite)
	(&MemWriteReq{Dst: dst}).Encode(e)
}

// MemWrite writes caller-provided bytes into device memory: the vectored twin of MemcpyH2D — the bytes travel borrowed as the frame's bulk region (single writev, zero copies); data stays the caller's, the range must lie inside the allocation that contains dst.
func (c *Client) MemWrite(p *sim.Proc, dst cuda.DevPtr, data []byte) (err error) {
	vc, err := remoting.Lane[remoting.VecCaller](c.T)
	if err != nil {
		return
	}
	enc := wire.GetEncoder()
	AppendMemWriteCall(enc, dst)
	respB, _, rerr := vc.RoundtripVec(p, enc.Bytes(), data, nil)
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- MemRead ---

// MemReadReq is the request message of MemRead.
type MemReadReq struct {
	Src  cuda.DevPtr
	Size int64
}

// Encode serializes the request.
func (m *MemReadReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.Src))
	e.I64(m.Size)
}

// Decode deserializes the request.
func (m *MemReadReq) Decode(d *wire.Decoder) {
	m.Src = cuda.DevPtr(d.U64())
	m.Size = d.I64()
}

// MemReadResp is the response message of MemRead.
type MemReadResp struct {
	Data []byte
}

// Encode serializes the response; Data is the frame's bulk region.
func (m *MemReadResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *MemReadResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendMemReadCall appends an encoded MemRead call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendMemReadCall(e *wire.Encoder, src cuda.DevPtr, size int64) {
	e.U16(CallMemRead)
	(&MemReadReq{Src: src, Size: size}).Encode(e)
}

// MemRead reads device memory back to the caller: the vectored twin of MemcpyD2H — the bytes return as the reply's bulk region, scatter-read into a caller-owned buffer; bytes never uploaded read as zeros, the range must lie inside the allocation that contains src; a direct (non-remoted) caller's result is a view of the backend's storage, valid until the next call that writes or frees src.
func (c *Client) MemRead(p *sim.Proc, src cuda.DevPtr, size int64) (data []byte, err error) {
	return c.MemReadInto(p, src, size, nil)
}

// MemReadInto is MemRead with a caller-owned destination buffer: the
// reply's bulk region is scatter-read into dst when it fits, making a
// pre-sized read allocation-free. The returned data may alias dst.
func (c *Client) MemReadInto(p *sim.Proc, src cuda.DevPtr, size int64, dst []byte) (data []byte, err error) {
	vc, err := remoting.Lane[remoting.VecCaller](c.T)
	if err != nil {
		return
	}
	enc := wire.GetEncoder()
	AppendMemReadCall(enc, src, size)
	respB, respBulk, rerr := vc.RoundtripVec(p, enc.Bytes(), nil, dst)
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	if err = dec.Err(); err != nil {
		return
	}
	data = respBulk
	return
}

// --- DnnCreateTensorDescriptor ---

// DnnCreateTensorDescriptorReq is the request message of DnnCreateTensorDescriptor.
type DnnCreateTensorDescriptorReq struct {
}

// Encode serializes the request.
func (m *DnnCreateTensorDescriptorReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *DnnCreateTensorDescriptorReq) Decode(d *wire.Decoder) {
	_ = d
}

// DnnCreateTensorDescriptorResp is the response message of DnnCreateTensorDescriptor.
type DnnCreateTensorDescriptorResp struct {
	D cudalibs.Descriptor
}

// Encode serializes the response.
func (m *DnnCreateTensorDescriptorResp) Encode(e *wire.Encoder) {
	e.U64(uint64(m.D))
}

// Decode deserializes the response.
func (m *DnnCreateTensorDescriptorResp) Decode(d *wire.Decoder) {
	m.D = cudalibs.Descriptor(d.U64())
}

// AppendDnnCreateTensorDescriptorCall appends an encoded DnnCreateTensorDescriptor call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnCreateTensorDescriptorCall(e *wire.Encoder) {
	e.U16(CallDnnCreateTensorDescriptor)
	(&DnnCreateTensorDescriptorReq{}).Encode(e)
}

// DnnCreateTensorDescriptor mirrors cudnnCreateTensorDescriptor; pooled guest-side when optimized.
func (c *Client) DnnCreateTensorDescriptor(p *sim.Proc) (d cudalibs.Descriptor, err error) {
	enc := wire.GetEncoder()
	AppendDnnCreateTensorDescriptorCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp DnnCreateTensorDescriptorResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	d = resp.D
	return
}

// --- DnnSetTensorDescriptor ---

// DnnSetTensorDescriptorReq is the request message of DnnSetTensorDescriptor.
type DnnSetTensorDescriptorReq struct {
	D cudalibs.Descriptor
}

// Encode serializes the request.
func (m *DnnSetTensorDescriptorReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.D))
}

// Decode deserializes the request.
func (m *DnnSetTensorDescriptorReq) Decode(d *wire.Decoder) {
	m.D = cudalibs.Descriptor(d.U64())
}

// DnnSetTensorDescriptorResp is the response message of DnnSetTensorDescriptor.
type DnnSetTensorDescriptorResp struct {
}

// Encode serializes the response.
func (m *DnnSetTensorDescriptorResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *DnnSetTensorDescriptorResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendDnnSetTensorDescriptorCall appends an encoded DnnSetTensorDescriptor call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnSetTensorDescriptorCall(e *wire.Encoder, d cudalibs.Descriptor) {
	e.U16(CallDnnSetTensorDescriptor)
	(&DnnSetTensorDescriptorReq{D: d}).Encode(e)
}

// DnnSetTensorDescriptor mirrors cudnnSetTensorDescriptor.
func (c *Client) DnnSetTensorDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error) {
	enc := wire.GetEncoder()
	AppendDnnSetTensorDescriptorCall(enc, d)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- DnnDestroyTensorDescriptor ---

// DnnDestroyTensorDescriptorReq is the request message of DnnDestroyTensorDescriptor.
type DnnDestroyTensorDescriptorReq struct {
	D cudalibs.Descriptor
}

// Encode serializes the request.
func (m *DnnDestroyTensorDescriptorReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.D))
}

// Decode deserializes the request.
func (m *DnnDestroyTensorDescriptorReq) Decode(d *wire.Decoder) {
	m.D = cudalibs.Descriptor(d.U64())
}

// DnnDestroyTensorDescriptorResp is the response message of DnnDestroyTensorDescriptor.
type DnnDestroyTensorDescriptorResp struct {
}

// Encode serializes the response.
func (m *DnnDestroyTensorDescriptorResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *DnnDestroyTensorDescriptorResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendDnnDestroyTensorDescriptorCall appends an encoded DnnDestroyTensorDescriptor call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnDestroyTensorDescriptorCall(e *wire.Encoder, d cudalibs.Descriptor) {
	e.U16(CallDnnDestroyTensorDescriptor)
	(&DnnDestroyTensorDescriptorReq{D: d}).Encode(e)
}

// DnnDestroyTensorDescriptor mirrors cudnnDestroyTensorDescriptor.
func (c *Client) DnnDestroyTensorDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error) {
	enc := wire.GetEncoder()
	AppendDnnDestroyTensorDescriptorCall(enc, d)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- DnnCreateFilterDescriptor ---

// DnnCreateFilterDescriptorReq is the request message of DnnCreateFilterDescriptor.
type DnnCreateFilterDescriptorReq struct {
}

// Encode serializes the request.
func (m *DnnCreateFilterDescriptorReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *DnnCreateFilterDescriptorReq) Decode(d *wire.Decoder) {
	_ = d
}

// DnnCreateFilterDescriptorResp is the response message of DnnCreateFilterDescriptor.
type DnnCreateFilterDescriptorResp struct {
	D cudalibs.Descriptor
}

// Encode serializes the response.
func (m *DnnCreateFilterDescriptorResp) Encode(e *wire.Encoder) {
	e.U64(uint64(m.D))
}

// Decode deserializes the response.
func (m *DnnCreateFilterDescriptorResp) Decode(d *wire.Decoder) {
	m.D = cudalibs.Descriptor(d.U64())
}

// AppendDnnCreateFilterDescriptorCall appends an encoded DnnCreateFilterDescriptor call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnCreateFilterDescriptorCall(e *wire.Encoder) {
	e.U16(CallDnnCreateFilterDescriptor)
	(&DnnCreateFilterDescriptorReq{}).Encode(e)
}

// DnnCreateFilterDescriptor mirrors cudnnCreateFilterDescriptor; pooled guest-side when optimized.
func (c *Client) DnnCreateFilterDescriptor(p *sim.Proc) (d cudalibs.Descriptor, err error) {
	enc := wire.GetEncoder()
	AppendDnnCreateFilterDescriptorCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp DnnCreateFilterDescriptorResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	d = resp.D
	return
}

// --- DnnSetFilterDescriptor ---

// DnnSetFilterDescriptorReq is the request message of DnnSetFilterDescriptor.
type DnnSetFilterDescriptorReq struct {
	D cudalibs.Descriptor
}

// Encode serializes the request.
func (m *DnnSetFilterDescriptorReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.D))
}

// Decode deserializes the request.
func (m *DnnSetFilterDescriptorReq) Decode(d *wire.Decoder) {
	m.D = cudalibs.Descriptor(d.U64())
}

// DnnSetFilterDescriptorResp is the response message of DnnSetFilterDescriptor.
type DnnSetFilterDescriptorResp struct {
}

// Encode serializes the response.
func (m *DnnSetFilterDescriptorResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *DnnSetFilterDescriptorResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendDnnSetFilterDescriptorCall appends an encoded DnnSetFilterDescriptor call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnSetFilterDescriptorCall(e *wire.Encoder, d cudalibs.Descriptor) {
	e.U16(CallDnnSetFilterDescriptor)
	(&DnnSetFilterDescriptorReq{D: d}).Encode(e)
}

// DnnSetFilterDescriptor mirrors cudnnSetFilterDescriptor.
func (c *Client) DnnSetFilterDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error) {
	enc := wire.GetEncoder()
	AppendDnnSetFilterDescriptorCall(enc, d)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- DnnDestroyFilterDescriptor ---

// DnnDestroyFilterDescriptorReq is the request message of DnnDestroyFilterDescriptor.
type DnnDestroyFilterDescriptorReq struct {
	D cudalibs.Descriptor
}

// Encode serializes the request.
func (m *DnnDestroyFilterDescriptorReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.D))
}

// Decode deserializes the request.
func (m *DnnDestroyFilterDescriptorReq) Decode(d *wire.Decoder) {
	m.D = cudalibs.Descriptor(d.U64())
}

// DnnDestroyFilterDescriptorResp is the response message of DnnDestroyFilterDescriptor.
type DnnDestroyFilterDescriptorResp struct {
}

// Encode serializes the response.
func (m *DnnDestroyFilterDescriptorResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *DnnDestroyFilterDescriptorResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendDnnDestroyFilterDescriptorCall appends an encoded DnnDestroyFilterDescriptor call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnDestroyFilterDescriptorCall(e *wire.Encoder, d cudalibs.Descriptor) {
	e.U16(CallDnnDestroyFilterDescriptor)
	(&DnnDestroyFilterDescriptorReq{D: d}).Encode(e)
}

// DnnDestroyFilterDescriptor mirrors cudnnDestroyFilterDescriptor.
func (c *Client) DnnDestroyFilterDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error) {
	enc := wire.GetEncoder()
	AppendDnnDestroyFilterDescriptorCall(enc, d)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- DnnCreateConvolutionDescriptor ---

// DnnCreateConvolutionDescriptorReq is the request message of DnnCreateConvolutionDescriptor.
type DnnCreateConvolutionDescriptorReq struct {
}

// Encode serializes the request.
func (m *DnnCreateConvolutionDescriptorReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *DnnCreateConvolutionDescriptorReq) Decode(d *wire.Decoder) {
	_ = d
}

// DnnCreateConvolutionDescriptorResp is the response message of DnnCreateConvolutionDescriptor.
type DnnCreateConvolutionDescriptorResp struct {
	D cudalibs.Descriptor
}

// Encode serializes the response.
func (m *DnnCreateConvolutionDescriptorResp) Encode(e *wire.Encoder) {
	e.U64(uint64(m.D))
}

// Decode deserializes the response.
func (m *DnnCreateConvolutionDescriptorResp) Decode(d *wire.Decoder) {
	m.D = cudalibs.Descriptor(d.U64())
}

// AppendDnnCreateConvolutionDescriptorCall appends an encoded DnnCreateConvolutionDescriptor call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnCreateConvolutionDescriptorCall(e *wire.Encoder) {
	e.U16(CallDnnCreateConvolutionDescriptor)
	(&DnnCreateConvolutionDescriptorReq{}).Encode(e)
}

// DnnCreateConvolutionDescriptor mirrors cudnnCreateConvolutionDescriptor; pooled guest-side when optimized.
func (c *Client) DnnCreateConvolutionDescriptor(p *sim.Proc) (d cudalibs.Descriptor, err error) {
	enc := wire.GetEncoder()
	AppendDnnCreateConvolutionDescriptorCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp DnnCreateConvolutionDescriptorResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	d = resp.D
	return
}

// --- DnnSetConvolutionDescriptor ---

// DnnSetConvolutionDescriptorReq is the request message of DnnSetConvolutionDescriptor.
type DnnSetConvolutionDescriptorReq struct {
	D cudalibs.Descriptor
}

// Encode serializes the request.
func (m *DnnSetConvolutionDescriptorReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.D))
}

// Decode deserializes the request.
func (m *DnnSetConvolutionDescriptorReq) Decode(d *wire.Decoder) {
	m.D = cudalibs.Descriptor(d.U64())
}

// DnnSetConvolutionDescriptorResp is the response message of DnnSetConvolutionDescriptor.
type DnnSetConvolutionDescriptorResp struct {
}

// Encode serializes the response.
func (m *DnnSetConvolutionDescriptorResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *DnnSetConvolutionDescriptorResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendDnnSetConvolutionDescriptorCall appends an encoded DnnSetConvolutionDescriptor call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnSetConvolutionDescriptorCall(e *wire.Encoder, d cudalibs.Descriptor) {
	e.U16(CallDnnSetConvolutionDescriptor)
	(&DnnSetConvolutionDescriptorReq{D: d}).Encode(e)
}

// DnnSetConvolutionDescriptor mirrors cudnnSetConvolutionDescriptor.
func (c *Client) DnnSetConvolutionDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error) {
	enc := wire.GetEncoder()
	AppendDnnSetConvolutionDescriptorCall(enc, d)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- DnnDestroyConvolutionDescriptor ---

// DnnDestroyConvolutionDescriptorReq is the request message of DnnDestroyConvolutionDescriptor.
type DnnDestroyConvolutionDescriptorReq struct {
	D cudalibs.Descriptor
}

// Encode serializes the request.
func (m *DnnDestroyConvolutionDescriptorReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.D))
}

// Decode deserializes the request.
func (m *DnnDestroyConvolutionDescriptorReq) Decode(d *wire.Decoder) {
	m.D = cudalibs.Descriptor(d.U64())
}

// DnnDestroyConvolutionDescriptorResp is the response message of DnnDestroyConvolutionDescriptor.
type DnnDestroyConvolutionDescriptorResp struct {
}

// Encode serializes the response.
func (m *DnnDestroyConvolutionDescriptorResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *DnnDestroyConvolutionDescriptorResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendDnnDestroyConvolutionDescriptorCall appends an encoded DnnDestroyConvolutionDescriptor call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnDestroyConvolutionDescriptorCall(e *wire.Encoder, d cudalibs.Descriptor) {
	e.U16(CallDnnDestroyConvolutionDescriptor)
	(&DnnDestroyConvolutionDescriptorReq{D: d}).Encode(e)
}

// DnnDestroyConvolutionDescriptor mirrors cudnnDestroyConvolutionDescriptor.
func (c *Client) DnnDestroyConvolutionDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error) {
	enc := wire.GetEncoder()
	AppendDnnDestroyConvolutionDescriptorCall(enc, d)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- DnnCreateActivationDescriptor ---

// DnnCreateActivationDescriptorReq is the request message of DnnCreateActivationDescriptor.
type DnnCreateActivationDescriptorReq struct {
}

// Encode serializes the request.
func (m *DnnCreateActivationDescriptorReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *DnnCreateActivationDescriptorReq) Decode(d *wire.Decoder) {
	_ = d
}

// DnnCreateActivationDescriptorResp is the response message of DnnCreateActivationDescriptor.
type DnnCreateActivationDescriptorResp struct {
	D cudalibs.Descriptor
}

// Encode serializes the response.
func (m *DnnCreateActivationDescriptorResp) Encode(e *wire.Encoder) {
	e.U64(uint64(m.D))
}

// Decode deserializes the response.
func (m *DnnCreateActivationDescriptorResp) Decode(d *wire.Decoder) {
	m.D = cudalibs.Descriptor(d.U64())
}

// AppendDnnCreateActivationDescriptorCall appends an encoded DnnCreateActivationDescriptor call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnCreateActivationDescriptorCall(e *wire.Encoder) {
	e.U16(CallDnnCreateActivationDescriptor)
	(&DnnCreateActivationDescriptorReq{}).Encode(e)
}

// DnnCreateActivationDescriptor mirrors cudnnCreateActivationDescriptor; pooled guest-side when optimized.
func (c *Client) DnnCreateActivationDescriptor(p *sim.Proc) (d cudalibs.Descriptor, err error) {
	enc := wire.GetEncoder()
	AppendDnnCreateActivationDescriptorCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp DnnCreateActivationDescriptorResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	d = resp.D
	return
}

// --- DnnSetActivationDescriptor ---

// DnnSetActivationDescriptorReq is the request message of DnnSetActivationDescriptor.
type DnnSetActivationDescriptorReq struct {
	D cudalibs.Descriptor
}

// Encode serializes the request.
func (m *DnnSetActivationDescriptorReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.D))
}

// Decode deserializes the request.
func (m *DnnSetActivationDescriptorReq) Decode(d *wire.Decoder) {
	m.D = cudalibs.Descriptor(d.U64())
}

// DnnSetActivationDescriptorResp is the response message of DnnSetActivationDescriptor.
type DnnSetActivationDescriptorResp struct {
}

// Encode serializes the response.
func (m *DnnSetActivationDescriptorResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *DnnSetActivationDescriptorResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendDnnSetActivationDescriptorCall appends an encoded DnnSetActivationDescriptor call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnSetActivationDescriptorCall(e *wire.Encoder, d cudalibs.Descriptor) {
	e.U16(CallDnnSetActivationDescriptor)
	(&DnnSetActivationDescriptorReq{D: d}).Encode(e)
}

// DnnSetActivationDescriptor mirrors cudnnSetActivationDescriptor.
func (c *Client) DnnSetActivationDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error) {
	enc := wire.GetEncoder()
	AppendDnnSetActivationDescriptorCall(enc, d)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- DnnDestroyActivationDescriptor ---

// DnnDestroyActivationDescriptorReq is the request message of DnnDestroyActivationDescriptor.
type DnnDestroyActivationDescriptorReq struct {
	D cudalibs.Descriptor
}

// Encode serializes the request.
func (m *DnnDestroyActivationDescriptorReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.D))
}

// Decode deserializes the request.
func (m *DnnDestroyActivationDescriptorReq) Decode(d *wire.Decoder) {
	m.D = cudalibs.Descriptor(d.U64())
}

// DnnDestroyActivationDescriptorResp is the response message of DnnDestroyActivationDescriptor.
type DnnDestroyActivationDescriptorResp struct {
}

// Encode serializes the response.
func (m *DnnDestroyActivationDescriptorResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *DnnDestroyActivationDescriptorResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendDnnDestroyActivationDescriptorCall appends an encoded DnnDestroyActivationDescriptor call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnDestroyActivationDescriptorCall(e *wire.Encoder, d cudalibs.Descriptor) {
	e.U16(CallDnnDestroyActivationDescriptor)
	(&DnnDestroyActivationDescriptorReq{D: d}).Encode(e)
}

// DnnDestroyActivationDescriptor mirrors cudnnDestroyActivationDescriptor.
func (c *Client) DnnDestroyActivationDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error) {
	enc := wire.GetEncoder()
	AppendDnnDestroyActivationDescriptorCall(enc, d)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- DnnCreatePoolingDescriptor ---

// DnnCreatePoolingDescriptorReq is the request message of DnnCreatePoolingDescriptor.
type DnnCreatePoolingDescriptorReq struct {
}

// Encode serializes the request.
func (m *DnnCreatePoolingDescriptorReq) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the request.
func (m *DnnCreatePoolingDescriptorReq) Decode(d *wire.Decoder) {
	_ = d
}

// DnnCreatePoolingDescriptorResp is the response message of DnnCreatePoolingDescriptor.
type DnnCreatePoolingDescriptorResp struct {
	D cudalibs.Descriptor
}

// Encode serializes the response.
func (m *DnnCreatePoolingDescriptorResp) Encode(e *wire.Encoder) {
	e.U64(uint64(m.D))
}

// Decode deserializes the response.
func (m *DnnCreatePoolingDescriptorResp) Decode(d *wire.Decoder) {
	m.D = cudalibs.Descriptor(d.U64())
}

// AppendDnnCreatePoolingDescriptorCall appends an encoded DnnCreatePoolingDescriptor call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnCreatePoolingDescriptorCall(e *wire.Encoder) {
	e.U16(CallDnnCreatePoolingDescriptor)
	(&DnnCreatePoolingDescriptorReq{}).Encode(e)
}

// DnnCreatePoolingDescriptor mirrors cudnnCreatePoolingDescriptor; pooled guest-side when optimized.
func (c *Client) DnnCreatePoolingDescriptor(p *sim.Proc) (d cudalibs.Descriptor, err error) {
	enc := wire.GetEncoder()
	AppendDnnCreatePoolingDescriptorCall(enc)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	var resp DnnCreatePoolingDescriptorResp
	resp.Decode(dec)
	if err = dec.Err(); err != nil {
		return
	}
	d = resp.D
	return
}

// --- DnnSetPoolingDescriptor ---

// DnnSetPoolingDescriptorReq is the request message of DnnSetPoolingDescriptor.
type DnnSetPoolingDescriptorReq struct {
	D cudalibs.Descriptor
}

// Encode serializes the request.
func (m *DnnSetPoolingDescriptorReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.D))
}

// Decode deserializes the request.
func (m *DnnSetPoolingDescriptorReq) Decode(d *wire.Decoder) {
	m.D = cudalibs.Descriptor(d.U64())
}

// DnnSetPoolingDescriptorResp is the response message of DnnSetPoolingDescriptor.
type DnnSetPoolingDescriptorResp struct {
}

// Encode serializes the response.
func (m *DnnSetPoolingDescriptorResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *DnnSetPoolingDescriptorResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendDnnSetPoolingDescriptorCall appends an encoded DnnSetPoolingDescriptor call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnSetPoolingDescriptorCall(e *wire.Encoder, d cudalibs.Descriptor) {
	e.U16(CallDnnSetPoolingDescriptor)
	(&DnnSetPoolingDescriptorReq{D: d}).Encode(e)
}

// DnnSetPoolingDescriptor mirrors cudnnSetPoolingDescriptor.
func (c *Client) DnnSetPoolingDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error) {
	enc := wire.GetEncoder()
	AppendDnnSetPoolingDescriptorCall(enc, d)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// --- DnnDestroyPoolingDescriptor ---

// DnnDestroyPoolingDescriptorReq is the request message of DnnDestroyPoolingDescriptor.
type DnnDestroyPoolingDescriptorReq struct {
	D cudalibs.Descriptor
}

// Encode serializes the request.
func (m *DnnDestroyPoolingDescriptorReq) Encode(e *wire.Encoder) {
	e.U64(uint64(m.D))
}

// Decode deserializes the request.
func (m *DnnDestroyPoolingDescriptorReq) Decode(d *wire.Decoder) {
	m.D = cudalibs.Descriptor(d.U64())
}

// DnnDestroyPoolingDescriptorResp is the response message of DnnDestroyPoolingDescriptor.
type DnnDestroyPoolingDescriptorResp struct {
}

// Encode serializes the response.
func (m *DnnDestroyPoolingDescriptorResp) Encode(e *wire.Encoder) {
	_ = e
}

// Decode deserializes the response.
func (m *DnnDestroyPoolingDescriptorResp) Decode(d *wire.Decoder) {
	_ = d
}

// AppendDnnDestroyPoolingDescriptorCall appends an encoded DnnDestroyPoolingDescriptor call (ID + request) to e,
// for direct sends and for batch assembly.
func AppendDnnDestroyPoolingDescriptorCall(e *wire.Encoder, d cudalibs.Descriptor) {
	e.U16(CallDnnDestroyPoolingDescriptor)
	(&DnnDestroyPoolingDescriptorReq{D: d}).Encode(e)
}

// DnnDestroyPoolingDescriptor mirrors cudnnDestroyPoolingDescriptor.
func (c *Client) DnnDestroyPoolingDescriptor(p *sim.Proc, d cudalibs.Descriptor) (err error) {
	enc := wire.GetEncoder()
	AppendDnnDestroyPoolingDescriptorCall(enc, d)
	respB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(0))
	if rerr != nil {
		// The transport may still hold the request; drop the encoder.
		err = rerr
		return
	}
	// A returned Roundtrip has fully consumed the request payload.
	wire.PutEncoder(enc)
	dec := wire.GetDecoder(respB)
	defer wire.PutDecoder(dec)
	if statusCode := int(dec.I32()); statusCode != 0 {
		err = cuda.FromCode(statusCode)
		return
	}
	err = dec.Err()
	return
}

// Dispatch decodes one call from payload and executes it against the
// backend, returning the encoded response and the logical payload bytes
// that flow back with it (for bandwidth accounting). Bulk calls need
// DispatchBulk, which carries their bytes.
func Dispatch(p *sim.Proc, b API, payload []byte) (resp []byte, respData int64) {
	resp, respData, _ = DispatchBulk(p, b, payload, nil)
	return resp, respData
}

// DispatchBulk is DispatchTo into a fresh encoder, for a caller that
// keeps the response: the one allocation per call is the response.
func DispatchBulk(p *sim.Proc, b API, payload, reqBulk []byte) (resp []byte, respData int64, respBulk []byte) {
	var enc wire.Encoder
	respData, respBulk = DispatchTo(p, b, &enc, payload, reqBulk)
	return enc.Bytes(), respData, respBulk
}

// DispatchTo is the dispatch body: it decodes one call from payload,
// executes it against the backend and appends the encoded response —
// the status word, then the result fields of a call that succeeded — to
// enc, allocating nothing when enc has the room. It returns the logical
// payload bytes that flow back with the response. The request's
// reference fields are decoded shared: what the backend receives
// aliases payload and the decoder, and is dead once DispatchTo returns,
// when the caller may recycle payload.
//
// reqBulk is the request frame's bulk region, the bytes of a bulk
// request field. The backend receives it as a borrowed argument and
// copies what it retains, unless the transport gave the buffer away and
// the backend learns so out of band (remoting.BulkLease). respBulk is
// the bytes of a bulk response field, for the reply frame's bulk region;
// it may be a view of the backend's storage, lent to the reply: it stays
// as it is until the reply frame is written.
func DispatchTo(p *sim.Proc, b API, enc *wire.Encoder, payload, reqBulk []byte) (respData int64, respBulk []byte) {
	dec := wire.GetDecoder(payload)
	defer wire.PutDecoder(dec)
	switch id := dec.U16(); id {
	case CallHello:
		var req HelloReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.Hello(p, req.FnID, req.MemLimit)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallBye:
		var req ByeReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.Bye(p)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallRegisterKernels:
		var req RegisterKernelsReq
		req.DecodeShared(dec)
		if dec.Err() != nil {
			break
		}
		ptrs, err := b.RegisterKernels(p, req.Names)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(4 + 4 + 8*len(ptrs))
		enc.I32(0)
		(&RegisterKernelsResp{Ptrs: ptrs}).Encode(enc)
		return 0, nil
	case CallGetDeviceCount:
		var req GetDeviceCountReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		n, err := b.GetDeviceCount(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&GetDeviceCountResp{N: n}).Encode(enc)
		return 0, nil
	case CallGetDeviceProperties:
		var req GetDevicePropertiesReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		prop, err := b.GetDeviceProperties(p, req.Dev)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(4 + 44 + len(prop.Name))
		enc.I32(0)
		(&GetDevicePropertiesResp{Prop: prop}).Encode(enc)
		return 0, nil
	case CallSetDevice:
		var req SetDeviceReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.SetDevice(p, req.Dev)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallGetDevice:
		var req GetDeviceReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		dev, err := b.GetDevice(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&GetDeviceResp{Dev: dev}).Encode(enc)
		return 0, nil
	case CallMemGetInfo:
		var req MemGetInfoReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		free, total, err := b.MemGetInfo(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(20)
		enc.I32(0)
		(&MemGetInfoResp{Free: free, Total: total}).Encode(enc)
		return 0, nil
	case CallDeviceSynchronize:
		var req DeviceSynchronizeReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.DeviceSynchronize(p)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallGetLastError:
		var req GetLastErrorReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		code, err := b.GetLastError(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&GetLastErrorResp{Code: code}).Encode(enc)
		return 0, nil
	case CallDriverGetVersion:
		var req DriverGetVersionReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		v, err := b.DriverGetVersion(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&DriverGetVersionResp{V: v}).Encode(enc)
		return 0, nil
	case CallRuntimeGetVersion:
		var req RuntimeGetVersionReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		v, err := b.RuntimeGetVersion(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&RuntimeGetVersionResp{V: v}).Encode(enc)
		return 0, nil
	case CallMalloc:
		var req MallocReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		ptr, err := b.Malloc(p, req.Size)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&MallocResp{Ptr: ptr}).Encode(enc)
		return 0, nil
	case CallFree:
		var req FreeReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.Free(p, req.Ptr)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallMemset:
		var req MemsetReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.Memset(p, req.Ptr, req.Value, req.Size)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallMemcpyH2D:
		var req MemcpyH2DReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.MemcpyH2D(p, req.Dst, req.Src, req.Size)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallMemcpyD2H:
		var req MemcpyD2HReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		buf, err := b.MemcpyD2H(p, req.Src, req.Size)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&MemcpyD2HResp{Buf: buf}).Encode(enc)
		return int64(req.Size), nil
	case CallMemcpyD2D:
		var req MemcpyD2DReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.MemcpyD2D(p, req.Dst, req.Src, req.Size)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallMallocHost:
		var req MallocHostReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		ptr, err := b.MallocHost(p, req.Size)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&MallocHostResp{Ptr: ptr}).Encode(enc)
		return 0, nil
	case CallFreeHost:
		var req FreeHostReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.FreeHost(p, req.Ptr)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallPointerGetAttributes:
		var req PointerGetAttributesReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		a, err := b.PointerGetAttributes(p, req.Ptr)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&PointerGetAttributesResp{A: a}).Encode(enc)
		return 0, nil
	case CallPushCallConfiguration:
		var req PushCallConfigurationReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.PushCallConfiguration(p, req.Grid, req.Block, req.Stream)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallPopCallConfiguration:
		var req PopCallConfigurationReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.PopCallConfiguration(p)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallLaunchKernel:
		var req LaunchKernelReq
		req.DecodeShared(dec)
		if dec.Err() != nil {
			break
		}
		err := b.LaunchKernel(p, req.LP)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallStreamCreate:
		var req StreamCreateReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		h, err := b.StreamCreate(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&StreamCreateResp{H: h}).Encode(enc)
		return 0, nil
	case CallStreamDestroy:
		var req StreamDestroyReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.StreamDestroy(p, req.H)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallStreamSynchronize:
		var req StreamSynchronizeReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.StreamSynchronize(p, req.H)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallEventCreate:
		var req EventCreateReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		h, err := b.EventCreate(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&EventCreateResp{H: h}).Encode(enc)
		return 0, nil
	case CallEventDestroy:
		var req EventDestroyReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.EventDestroy(p, req.H)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallEventRecord:
		var req EventRecordReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.EventRecord(p, req.H, req.Stream)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallEventSynchronize:
		var req EventSynchronizeReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.EventSynchronize(p, req.H)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallEventElapsed:
		var req EventElapsedReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		d, err := b.EventElapsed(p, req.Start, req.End)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&EventElapsedResp{D: d}).Encode(enc)
		return 0, nil
	case CallDnnCreate:
		var req DnnCreateReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		h, err := b.DnnCreate(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&DnnCreateResp{H: h}).Encode(enc)
		return 0, nil
	case CallDnnDestroy:
		var req DnnDestroyReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.DnnDestroy(p, req.H)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallDnnSetStream:
		var req DnnSetStreamReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.DnnSetStream(p, req.H, req.Stream)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallDnnGetConvolutionWorkspaceSize:
		var req DnnGetConvolutionWorkspaceSizeReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		size, err := b.DnnGetConvolutionWorkspaceSize(p, req.D)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&DnnGetConvolutionWorkspaceSizeResp{Size: size}).Encode(enc)
		return 0, nil
	case CallDnnForward:
		var req DnnForwardReq
		req.DecodeShared(dec)
		if dec.Err() != nil {
			break
		}
		err := b.DnnForward(p, req.H, req.Op, req.Dur, req.Bufs, req.Descs)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallBlasCreate:
		var req BlasCreateReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		h, err := b.BlasCreate(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&BlasCreateResp{H: h}).Encode(enc)
		return 0, nil
	case CallBlasDestroy:
		var req BlasDestroyReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.BlasDestroy(p, req.H)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallBlasSetStream:
		var req BlasSetStreamReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.BlasSetStream(p, req.H, req.Stream)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallBlasGemm:
		var req BlasGemmReq
		req.DecodeShared(dec)
		if dec.Err() != nil {
			break
		}
		err := b.BlasGemm(p, req.H, req.Dur, req.Bufs)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallModelAttach:
		var req ModelAttachReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		ptr, size, tier, err := b.ModelAttach(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(28)
		enc.I32(0)
		(&ModelAttachResp{Ptr: ptr, Size: size, Tier: tier}).Encode(enc)
		return 0, nil
	case CallModelPersist:
		var req ModelPersistReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.ModelPersist(p, req.Ptr)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallMemExport:
		var req MemExportReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		export, size, err := b.MemExport(p, req.Ptr, req.Tag)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(20)
		enc.I32(0)
		(&MemExportResp{Export: export, Size: size}).Encode(enc)
		return 0, nil
	case CallMemImport:
		var req MemImportReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		ptr, size, err := b.MemImport(p, req.Export)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(20)
		enc.I32(0)
		(&MemImportResp{Ptr: ptr, Size: size}).Encode(enc)
		return 0, nil
	case CallPeerCopy:
		var req PeerCopyReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		ptr, size, err := b.PeerCopy(p, req.Export)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(20)
		enc.I32(0)
		(&PeerCopyResp{Ptr: ptr, Size: size}).Encode(enc)
		return 0, nil
	case CallModelBroadcast:
		var req ModelBroadcastReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		ptr, size, src, err := b.ModelBroadcast(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(28)
		enc.I32(0)
		(&ModelBroadcastResp{Ptr: ptr, Size: size, Src: src}).Encode(enc)
		return 0, nil
	case CallMemWrite:
		var req MemWriteReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.MemWrite(p, req.Dst, reqBulk)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallMemRead:
		var req MemReadReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		data, err := b.MemRead(p, req.Src, req.Size)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(4)
		enc.I32(0)
		(&MemReadResp{}).Encode(enc)
		return 0, data
	case CallDnnCreateTensorDescriptor:
		var req DnnCreateTensorDescriptorReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		d, err := b.DnnCreateTensorDescriptor(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&DnnCreateTensorDescriptorResp{D: d}).Encode(enc)
		return 0, nil
	case CallDnnSetTensorDescriptor:
		var req DnnSetTensorDescriptorReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.DnnSetTensorDescriptor(p, req.D)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallDnnDestroyTensorDescriptor:
		var req DnnDestroyTensorDescriptorReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.DnnDestroyTensorDescriptor(p, req.D)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallDnnCreateFilterDescriptor:
		var req DnnCreateFilterDescriptorReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		d, err := b.DnnCreateFilterDescriptor(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&DnnCreateFilterDescriptorResp{D: d}).Encode(enc)
		return 0, nil
	case CallDnnSetFilterDescriptor:
		var req DnnSetFilterDescriptorReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.DnnSetFilterDescriptor(p, req.D)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallDnnDestroyFilterDescriptor:
		var req DnnDestroyFilterDescriptorReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.DnnDestroyFilterDescriptor(p, req.D)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallDnnCreateConvolutionDescriptor:
		var req DnnCreateConvolutionDescriptorReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		d, err := b.DnnCreateConvolutionDescriptor(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&DnnCreateConvolutionDescriptorResp{D: d}).Encode(enc)
		return 0, nil
	case CallDnnSetConvolutionDescriptor:
		var req DnnSetConvolutionDescriptorReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.DnnSetConvolutionDescriptor(p, req.D)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallDnnDestroyConvolutionDescriptor:
		var req DnnDestroyConvolutionDescriptorReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.DnnDestroyConvolutionDescriptor(p, req.D)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallDnnCreateActivationDescriptor:
		var req DnnCreateActivationDescriptorReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		d, err := b.DnnCreateActivationDescriptor(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&DnnCreateActivationDescriptorResp{D: d}).Encode(enc)
		return 0, nil
	case CallDnnSetActivationDescriptor:
		var req DnnSetActivationDescriptorReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.DnnSetActivationDescriptor(p, req.D)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallDnnDestroyActivationDescriptor:
		var req DnnDestroyActivationDescriptorReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.DnnDestroyActivationDescriptor(p, req.D)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallDnnCreatePoolingDescriptor:
		var req DnnCreatePoolingDescriptorReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		d, err := b.DnnCreatePoolingDescriptor(p)
		if err != nil {
			enc.I32(int32(cuda.Code(err)))
			return 0, nil
		}
		enc.Grow(12)
		enc.I32(0)
		(&DnnCreatePoolingDescriptorResp{D: d}).Encode(enc)
		return 0, nil
	case CallDnnSetPoolingDescriptor:
		var req DnnSetPoolingDescriptorReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.DnnSetPoolingDescriptor(p, req.D)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	case CallDnnDestroyPoolingDescriptor:
		var req DnnDestroyPoolingDescriptorReq
		req.Decode(dec)
		if dec.Err() != nil {
			break
		}
		err := b.DnnDestroyPoolingDescriptor(p, req.D)
		enc.I32(int32(cuda.Code(err)))
		return 0, nil
	}
	// An unknown call, or a request that does not decode.
	enc.I32(int32(cuda.Code(cuda.ErrInvalidValue)))
	return 0, nil
}
