// Code generated by cmd/apigen. DO NOT EDIT.

package gen

// DeferrableCalls names the calls that are safe to submit one-way on the
// pipelined async lane (OptAsync): result-free, with errors allowed to
// latch until the next fence. Free is intentionally absent — it fences.
var DeferrableCalls = map[string]bool{
	"Memset":        true,
	"MemcpyH2D":     true,
	"LaunchKernel":  true,
	"StreamDestroy": true,
	"EventDestroy":  true,
	"EventRecord":   true,
	"DnnDestroy":    true,
	"DnnSetStream":  true,
	"BlasDestroy":   true,
	"BlasSetStream": true,
}

var deferrableByID = [NumCalls + 2]bool{
	CallMemset:        true,
	CallMemcpyH2D:     true,
	CallLaunchKernel:  true,
	CallStreamDestroy: true,
	CallEventDestroy:  true,
	CallEventRecord:   true,
	CallDnnDestroy:    true,
	CallDnnSetStream:  true,
	CallBlasDestroy:   true,
	CallBlasSetStream: true,
}

var establishesByID = [NumCalls + 2]bool{
	CallHello:           true,
	CallRegisterKernels: true,
	CallMalloc:          true,
	CallMemcpyH2D:       true,
	CallMallocHost:      true,
	CallStreamCreate:    true,
	CallEventCreate:     true,
	CallDnnCreate:       true,
	CallDnnSetStream:    true,
	CallBlasCreate:      true,
	CallBlasSetStream:   true,
	CallModelAttach:     true,
	CallMemImport:       true,
	CallPeerCopy:        true,
	CallModelBroadcast:  true,
	CallMemWrite:        true,
}

// CallIsDeferrable reports whether a call ID may be wrapped in a
// remoting.CallAsync envelope (never, for an ID past the table: the spare slot).
func CallIsDeferrable(id uint16) bool { return deferrableByID[min(id, NumCalls+1)] }

// CallEstablishesState reports whether a call ID creates server-side
// session state that a recovered session must re-establish.
func CallEstablishesState(id uint16) bool { return establishesByID[min(id, NumCalls+1)] }
