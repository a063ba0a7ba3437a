// Command apigen generates the DGSF remoting layer from lists of API calls,
// mirroring the paper's implementation strategy: "we list all APIs and
// generate code for both sides of the API remoting system" (§VI). It knows
// two surfaces — the CUDA API a function's guest library remotes to an API
// server (internal/remoting/gen) and the cluster store's API a controller
// remotes to the store (internal/store) — and one set of emitters serves
// both.
//
// For every call it emits request/response structs with binary
// Encode/Decode, an Append*Call helper (used by the guest library's batching
// queue), a Client method (calling side), and a Dispatch case (serving
// side), plus the interface both sides implement.
//
// Usage: go run ./cmd/apigen
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
	"sort"
	"strings"
)

// Field is one request or response field.
type Field struct {
	Name string
	Kind string
}

// Call describes one remoted API.
type Call struct {
	Name    string
	ID      int
	Doc     string
	Req     []Field
	Resp    []Field
	Class   string // "remote", "local" (guest-answerable), "batchable"
	ReqData string // request field carrying logical payload bytes guest→server
	RspData string // request field carrying logical payload bytes server→guest

	// Async marks a call that is safe to submit one-way on the pipelined
	// lane (OptAsync): it bears no result the caller needs immediately and
	// its error may latch until the next fence. Only batchable calls and
	// result-free remote calls qualify; the generator enforces this.
	Async bool
	// Establishes marks a call that creates server-side session state
	// (returns or consumes a handle, uploads guest-owned bytes, or binds
	// handles together). A recoverable guest must register every such call
	// in its replay journal; its recovery tests replay each of them.
	Establishes bool
}

// kinds maps a spec kind to its Go type and encode/decode expressions.
// DecShared, when set, is an allocation-free decode whose result aliases
// the decoder's buffer/scratch (valid until the decoder resets); the server
// dispatch path prefers it, since the dispatch decoder outlives the backend
// call. Scratch names the per-decoder scratch slice such a decode fills: at
// most one field per scratch may appear in a message, or the second decode
// would clobber the first (validate enforces this); a shared kind without
// one aliases the buffer alone. Size, when set, estimates the value's encoded
// length; Dispatch grows the reply encoder by the response's estimate (eight
// bytes for a field without one) before encoding it, so a reply into a fresh
// encoder is one allocation and one into a warm encoder none.
var kinds = map[string]struct {
	GoType    string
	Enc       string // method on wire.Encoder; %s is the value
	Dec       string // expression on wire.Decoder
	DecShared string // alloc-free variant aliasing the decoder, if any
	Scratch   string // decoder scratch DecShared fills, if any
	Size      string // encoded-length estimate; %s is the value
}{
	"bool": {GoType: "bool", Enc: "e.Bool(%s)", Dec: "d.Bool()"},
	"byte": {GoType: "byte", Enc: "e.U8(%s)", Dec: "d.U8()"},
	"int":  {GoType: "int", Enc: "e.Int(%s)", Dec: "d.Int()"},
	"i64":  {GoType: "int64", Enc: "e.I64(%s)", Dec: "d.I64()"},
	"u64":  {GoType: "uint64", Enc: "e.U64(%s)", Dec: "d.U64()"},
	"u64s": {GoType: "[]uint64", Enc: "e.U64s(%s)", Dec: "d.U64s()"},
	"dur":  {GoType: "time.Duration", Enc: "e.Dur(%s)", Dec: "d.Dur()"},
	"str":  {GoType: "string", Enc: "e.Str(%s)", Dec: "d.Str()"},
	// label is a str the backend only looks up (a cuDNN primitive's name):
	// dispatch hands it over as a view of the request buffer.
	"label":   {GoType: "string", Enc: "e.Str(%s)", Dec: "d.Str()", DecShared: "d.StrShared()"},
	"strs":    {GoType: "[]string", Enc: "e.Strs(%s)", Dec: "d.Strs()", DecShared: "d.StrsShared()", Scratch: "strs"},
	"vec3":    {GoType: "[3]int", Enc: "e.Vec3(%s)", Dec: "d.Vec3()"},
	"hostbuf": {GoType: "gpu.HostBuffer", Enc: "e.HostBuf(%s)", Dec: "d.HostBuf()"},
	// bulk is a trailing raw byte slice eligible for the vectored zero-copy
	// lane: over a VecCaller the generated stub passes it borrowed alongside
	// the metadata (one writev, no coalescing copy); over any other Caller it
	// is inlined as an ordinary length-prefixed field (capped at wire's 1 MiB
	// slice bound). validate() enforces its placement rules.
	"bulk":    {GoType: "[]byte", Enc: "e.BytesField(%s)", Dec: "d.BytesField()", DecShared: "d.BytesShared()", Size: "4 + len(%s)"},
	"prop":    {GoType: "cuda.DeviceProp", Enc: "e.Prop(%s)", Dec: "d.Prop()", Size: "44 + len(%s.Name)"},
	"attrs":   {GoType: "cuda.PtrAttributes", Enc: "e.Attrs(%s)", Dec: "d.Attrs()"},
	"launch":  {GoType: "cuda.LaunchParams", Enc: "e.Launch(%s)", Dec: "d.Launch()", DecShared: "d.LaunchShared()", Scratch: "ptrs"},
	"devptr":  {GoType: "cuda.DevPtr", Enc: "e.U64(uint64(%s))", Dec: "cuda.DevPtr(d.U64())"},
	"devptrs": {GoType: "[]cuda.DevPtr", Enc: "e.DevPtrs(%s)", Dec: "d.DevPtrs()", DecShared: "d.DevPtrsShared()", Scratch: "ptrs"},
	"fnptr":   {GoType: "cuda.FnPtr", Enc: "e.U64(uint64(%s))", Dec: "cuda.FnPtr(d.U64())"},
	"fnptrs":  {GoType: "[]cuda.FnPtr", Enc: "e.FnPtrs(%s)", Dec: "d.FnPtrs()", Size: "4 + 8*len(%s)"},
	"stream":  {GoType: "cuda.StreamHandle", Enc: "e.U64(uint64(%s))", Dec: "cuda.StreamHandle(d.U64())"},
	"event":   {GoType: "cuda.EventHandle", Enc: "e.U64(uint64(%s))", Dec: "cuda.EventHandle(d.U64())"},
	"dnn":     {GoType: "cudalibs.DNNHandle", Enc: "e.U64(uint64(%s))", Dec: "cudalibs.DNNHandle(d.U64())"},
	"blas":    {GoType: "cudalibs.BLASHandle", Enc: "e.U64(uint64(%s))", Dec: "cudalibs.BLASHandle(d.U64())"},
	"desc":    {GoType: "cudalibs.Descriptor", Enc: "e.U64(uint64(%s))", Dec: "cudalibs.Descriptor(d.U64())"},
	// The store surface's kinds; their types and codecs live in package store.
	"kind":   {GoType: "Kind", Enc: "e.Str(string(%s))", Dec: "kindOf(d.BytesShared())"},
	"obj":    {GoType: "Resource", Enc: "encodeResource(e, %s)", Dec: "decodeResource(d)", Size: "resourceSizeHint(%s)"},
	"objs":   {GoType: "[]Resource", Enc: "encodeResources(e, %s)", Dec: "decodeResources(d)", Size: "resourcesSizeHint(%s)"},
	"events": {GoType: "[]Event", Enc: "encodeEvents(e, %s)", Dec: "decodeEvents(d)", Size: "eventsSizeHint(%s)"},
}

// sizeHint renders the estimated encoded length of a response — the status
// word, eight bytes for every field without an estimate of its own, and the
// estimates.
func sizeHint(fields []Field) string {
	fixed, sized := 4, ""
	for _, f := range fields {
		if k := kinds[f.Kind]; k.Size != "" {
			sized += " + " + fmt.Sprintf(k.Size, lower(f.Name))
		} else {
			fixed += 8
		}
	}
	return fmt.Sprint(fixed) + sized
}

// hasShared reports whether any field of a message decodes through a
// shared (decoder-aliasing) variant.
func hasShared(fields []Field) bool {
	for _, f := range fields {
		if kinds[f.Kind].DecShared != "" {
			return true
		}
	}
	return false
}

// bulkField returns the trailing bulk field of a message, if any.
func bulkField(fields []Field) *Field {
	for i := range fields {
		if fields[i].Kind == "bulk" {
			return &fields[i]
		}
	}
	return nil
}

// surface describes one remoted API: where its stubs are emitted and the few
// places their text differs from the other surface's.
type surface struct {
	Header    string // package comment, package clause and imports
	APIDoc    string // comment of API, the interface both sides implement
	ClientDoc string // the Client type's comment
	BadReq    string // error answering a request that does not decode
	// Lanes marks the CUDA surface: a batch container, a call-class table
	// and DispatchBulk, with Async calls left to the guest library's lanes.
	// A surface without them submits its Async calls one-way from the Client.
	Lanes bool
	// Intern gives the Client a wire.Interner that its reply decoders share,
	// for a surface whose replies repeat the same short names.
	Intern bool
}

var cudaSurface = surface{
	Header: `// Package gen contains the generated DGSF remoting layer: call IDs,
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
`,
	APIDoc: `// API is the remoted DGSF API surface. The guest library, the API
// server backend and the native (non-remoted) baseline all implement it.`,
	ClientDoc: `// Client implements API by remoting every call over a transport.
// Higher layers (the guest library) add localization and batching.`,
	BadReq: "cuda.ErrInvalidValue",
	Lanes:  true,
}

// spec is the remoted API surface: the CUDA runtime calls DGSF interposes,
// the cuDNN/cuBLAS calls its workloads depend on, and the DGSF session
// control calls. Classes follow §V-B/§V-C: "local" calls are answerable by
// the guest library without remoting (at the appropriate optimization
// tier); "batchable" calls produce no immediately-needed result and may be
// accumulated and shipped in one batch message.
var spec = []Call{
	// --- DGSF session control ---
	{Name: "Hello", Doc: "opens a function session on the API server, declaring the function's GPU memory requirement", Req: []Field{{"FnID", "str"}, {"MemLimit", "i64"}}, Class: "remote", Establishes: true},
	{Name: "Bye", Doc: "ends the function session, releasing all of its server-side resources", Class: "remote"},
	{Name: "RegisterKernels", Doc: "sends the function's kernel symbols ahead of execution (step 2 in Fig. 2) and returns their function handles", Req: []Field{{"Names", "strs"}}, Resp: []Field{{"Ptrs", "fnptrs"}}, Class: "remote", Establishes: true},

	// --- device management (cudaGetDevice* etc.) ---
	{Name: "GetDeviceCount", Doc: "mirrors cudaGetDeviceCount; DGSF API servers always answer 1", Resp: []Field{{"N", "int"}}, Class: "remote"},
	{Name: "GetDeviceProperties", Doc: "mirrors cudaGetDeviceProperties for the virtual device", Req: []Field{{"Dev", "int"}}, Resp: []Field{{"Prop", "prop"}}, Class: "remote"},
	{Name: "SetDevice", Doc: "mirrors cudaSetDevice; only virtual device 0 is valid", Req: []Field{{"Dev", "int"}}, Class: "remote"},
	{Name: "GetDevice", Doc: "mirrors cudaGetDevice", Resp: []Field{{"Dev", "int"}}, Class: "local"},
	{Name: "MemGetInfo", Doc: "mirrors cudaMemGetInfo, scoped to the function's memory limit", Resp: []Field{{"Free", "i64"}, {"Total", "i64"}}, Class: "remote"},
	{Name: "DeviceSynchronize", Doc: "mirrors cudaDeviceSynchronize", Class: "remote"},
	{Name: "GetLastError", Doc: "mirrors cudaGetLastError; tracked guest-side", Resp: []Field{{"Code", "int"}}, Class: "local"},
	{Name: "DriverGetVersion", Doc: "mirrors cuDriverGetVersion; a constant, answered locally", Resp: []Field{{"V", "int"}}, Class: "local"},
	{Name: "RuntimeGetVersion", Doc: "mirrors cudaRuntimeGetVersion; a constant, answered locally", Resp: []Field{{"V", "int"}}, Class: "local"},

	// --- memory management ---
	{Name: "Malloc", Doc: "mirrors cudaMalloc; the API server realizes it through the low-level VMM path so migration preserves the address", Req: []Field{{"Size", "i64"}}, Resp: []Field{{"Ptr", "devptr"}}, Class: "remote", Establishes: true},
	// Free is deliberately NOT Async: releasing memory while earlier one-way
	// work may still reference it requires draining the lane first, so the
	// guest routes it through the fencing path.
	{Name: "Free", Doc: "mirrors cudaFree", Req: []Field{{"Ptr", "devptr"}}, Class: "batchable"},
	{Name: "Memset", Doc: "mirrors cudaMemset", Req: []Field{{"Ptr", "devptr"}, {"Value", "byte"}, {"Size", "i64"}}, Class: "batchable", Async: true},
	{Name: "MemcpyH2D", Doc: "mirrors cudaMemcpy(HostToDevice); the host payload rides with the request", Req: []Field{{"Dst", "devptr"}, {"Src", "hostbuf"}, {"Size", "i64"}}, Class: "remote", ReqData: "Size", Async: true, Establishes: true},
	{Name: "MemcpyD2H", Doc: "mirrors cudaMemcpy(DeviceToHost); the device payload rides with the response", Req: []Field{{"Src", "devptr"}, {"Size", "i64"}}, Resp: []Field{{"Buf", "hostbuf"}}, Class: "remote", RspData: "Size"},
	{Name: "MemcpyD2D", Doc: "mirrors cudaMemcpy(DeviceToDevice)", Req: []Field{{"Dst", "devptr"}, {"Src", "devptr"}, {"Size", "i64"}}, Class: "remote"},
	{Name: "MallocHost", Doc: "mirrors cudaMallocHost; host-only state, fully emulated by the guest library when optimized", Req: []Field{{"Size", "i64"}}, Resp: []Field{{"Ptr", "u64"}}, Class: "local", Establishes: true},
	{Name: "FreeHost", Doc: "mirrors cudaFreeHost", Req: []Field{{"Ptr", "u64"}}, Class: "local"},
	{Name: "PointerGetAttributes", Doc: "mirrors cudaPointerGetAttributes; the optimized guest answers from tracked allocations", Req: []Field{{"Ptr", "devptr"}}, Resp: []Field{{"A", "attrs"}}, Class: "local"},

	// --- execution ---
	{Name: "PushCallConfiguration", Doc: "mirrors __cudaPushCallConfiguration; piggybacked onto the launch when optimized", Req: []Field{{"Grid", "vec3"}, {"Block", "vec3"}, {"Stream", "stream"}}, Class: "local"},
	{Name: "PopCallConfiguration", Doc: "mirrors __cudaPopCallConfiguration", Class: "local"},
	{Name: "LaunchKernel", Doc: "mirrors cudaLaunchKernel; asynchronous, so batchable — a guest library that defers the launch borrows LP.Mutates until its next flush or fence", Req: []Field{{"LP", "launch"}}, Class: "batchable", Async: true},
	{Name: "StreamCreate", Doc: "mirrors cudaStreamCreate; the server pre-replicates the stream in every context it holds (§V-D)", Resp: []Field{{"H", "stream"}}, Class: "remote", Establishes: true},
	{Name: "StreamDestroy", Doc: "mirrors cudaStreamDestroy", Req: []Field{{"H", "stream"}}, Class: "batchable", Async: true},
	{Name: "StreamSynchronize", Doc: "mirrors cudaStreamSynchronize", Req: []Field{{"H", "stream"}}, Class: "remote"},
	{Name: "EventCreate", Doc: "mirrors cudaEventCreate", Resp: []Field{{"H", "event"}}, Class: "remote", Establishes: true},
	{Name: "EventDestroy", Doc: "mirrors cudaEventDestroy", Req: []Field{{"H", "event"}}, Class: "batchable", Async: true},
	{Name: "EventRecord", Doc: "mirrors cudaEventRecord", Req: []Field{{"H", "event"}, {"Stream", "stream"}}, Class: "batchable", Async: true},
	{Name: "EventSynchronize", Doc: "mirrors cudaEventSynchronize", Req: []Field{{"H", "event"}}, Class: "remote"},
	{Name: "EventElapsed", Doc: "mirrors cudaEventElapsedTime", Req: []Field{{"Start", "event"}, {"End", "event"}}, Resp: []Field{{"D", "dur"}}, Class: "remote"},

	// --- cuDNN ---
	{Name: "DnnCreate", Doc: "mirrors cudnnCreate; served from the API server's pre-created handle pool when optimized (§V-C)", Resp: []Field{{"H", "dnn"}}, Class: "remote", Establishes: true},
	{Name: "DnnDestroy", Doc: "mirrors cudnnDestroy", Req: []Field{{"H", "dnn"}}, Class: "batchable", Async: true},
	{Name: "DnnSetStream", Doc: "mirrors cudnnSetStream", Req: []Field{{"H", "dnn"}, {"Stream", "stream"}}, Class: "batchable", Async: true, Establishes: true},
	{Name: "DnnGetConvolutionWorkspaceSize", Doc: "mirrors cudnnGetConvolutionForwardWorkspaceSize", Req: []Field{{"D", "desc"}}, Resp: []Field{{"Size", "i64"}}, Class: "remote"},
	{Name: "DnnForward", Doc: "runs a cuDNN compute primitive (convolution, batch-norm, ...) of the given nominal duration", Req: []Field{{"H", "dnn"}, {"Op", "label"}, {"Dur", "dur"}, {"Bufs", "devptrs"}, {"Descs", "u64s"}}, Class: "remote"},

	// --- cuBLAS ---
	{Name: "BlasCreate", Doc: "mirrors cublasCreate; pooled like cuDNN handles", Resp: []Field{{"H", "blas"}}, Class: "remote", Establishes: true},
	{Name: "BlasDestroy", Doc: "mirrors cublasDestroy", Req: []Field{{"H", "blas"}}, Class: "batchable", Async: true},
	{Name: "BlasSetStream", Doc: "mirrors cublasSetStream", Req: []Field{{"H", "blas"}, {"Stream", "stream"}}, Class: "batchable", Async: true, Establishes: true},
	{Name: "BlasGemm", Doc: "mirrors cublasSgemm with the given nominal duration", Req: []Field{{"H", "blas"}, {"Dur", "dur"}, {"Bufs", "devptrs"}}, Class: "remote"},

	// --- model cache (DGSF extension; internal/modelcache) ---
	{Name: "ModelAttach", Doc: "asks the API server for a cached copy of the session function's model working set; Tier reports where it was found (0 miss, 1 host-staged, 2 GPU-resident) and Ptr/Size are zero on a miss", Resp: []Field{{"Ptr", "devptr"}, {"Size", "i64"}, {"Tier", "int"}}, Class: "remote", Establishes: true},
	{Name: "ModelPersist", Doc: "marks a session allocation as the function's model working set, a candidate for retention in the model cache when the session ends; without a cache it behaves like cudaFree", Req: []Field{{"Ptr", "devptr"}}, Class: "remote"},

	// --- GPU-side data plane (DGSF extension; internal/dataplane) ---
	{Name: "MemExport", Doc: "detaches a session allocation and publishes it on the GPU server's data plane under a fabric-wide export ID; ownership moves out of the session (like ModelPersist, it is a state-removing call) and the tensor stays device-resident awaiting a consumer", Req: []Field{{"Ptr", "devptr"}, {"Tag", "str"}}, Resp: []Field{{"Export", "u64"}, {"Size", "i64"}}, Class: "remote"},
	{Name: "MemImport", Doc: "maps an export published by another API server on the same GPU server into the session: a zero-copy VMM remap when producer and consumer share a device, a D2D clone across devices of one machine; fails for exports on other GPU servers (use PeerCopy)", Req: []Field{{"Export", "u64"}}, Resp: []Field{{"Ptr", "devptr"}, {"Size", "i64"}}, Class: "remote", Establishes: true},
	{Name: "PeerCopy", Doc: "pulls an export from another GPU server over the bandwidth-modeled data-plane fabric into a fresh session allocation, consuming the export; degrades to MemImport semantics when the export turns out to be local", Req: []Field{{"Export", "u64"}}, Resp: []Field{{"Ptr", "devptr"}, {"Size", "i64"}}, Class: "remote", Establishes: true},
	{Name: "ModelBroadcast", Doc: "one-to-many model fan-out: the first caller per GPU server pays a single host-staged read and becomes the broadcast source, later callers clone it device-to-device; Src reports the path (0 miss, 1 host seed, 2 device clone) and Ptr/Size are zero on a miss", Resp: []Field{{"Ptr", "devptr"}, {"Size", "i64"}, {"Src", "int"}}, Class: "remote", Establishes: true},

	// --- vectored bulk transfers ---
	{Name: "MemWrite", Doc: "writes caller-provided bytes into device memory: the vectored twin of MemcpyH2D — on a connection with the bulk lane the bytes travel borrowed as the frame's bulk region (single writev, zero copies), elsewhere they are inlined (capped at 1 MiB); data stays the caller's, the range must lie inside the allocation that contains dst", Req: []Field{{"Dst", "devptr"}, {"Data", "bulk"}}, Class: "remote", Establishes: true},
	{Name: "MemRead", Doc: "reads device memory back to the caller: the vectored twin of MemcpyD2H — on a connection with the bulk lane the bytes return as a bulk region scatter-read into a caller-owned buffer, elsewhere they are inlined (capped at 1 MiB); bytes never uploaded read as zeros, the range must lie inside the allocation that contains src; a direct (non-remoted) caller's result is a view of the backend's storage, valid until the next call that writes or frees src", Req: []Field{{"Src", "devptr"}, {"Size", "i64"}}, Resp: []Field{{"Data", "bulk"}}, Class: "remote"},
}

// descriptorSpecies expands into Create/Set/Destroy triples, mirroring the
// cudnn*Descriptor API families (§V-C "Guest library").
var descriptorSpecies = []string{"Tensor", "Filter", "Convolution", "Activation", "Pooling"}

func buildSpec() []Call {
	calls := make([]Call, 0, len(spec)+3*len(descriptorSpecies))
	calls = append(calls, spec...)
	for _, sp := range descriptorSpecies {
		calls = append(calls,
			Call{Name: "DnnCreate" + sp + "Descriptor", Doc: fmt.Sprintf("mirrors cudnnCreate%sDescriptor; pooled guest-side when optimized", sp), Resp: []Field{{"D", "desc"}}, Class: "local"},
			Call{Name: "DnnSet" + sp + "Descriptor", Doc: fmt.Sprintf("mirrors cudnnSet%sDescriptor", sp), Req: []Field{{"D", "desc"}}, Class: "local"},
			Call{Name: "DnnDestroy" + sp + "Descriptor", Doc: fmt.Sprintf("mirrors cudnnDestroy%sDescriptor", sp), Req: []Field{{"D", "desc"}}, Class: "local"},
		)
	}
	for i := range calls {
		calls[i].ID = i + 1
	}
	return calls
}

func lower(s string) string {
	if s == "" {
		return s
	}
	out := strings.ToLower(s[:1]) + s[1:]
	switch out {
	case "type", "func", "var", "map", "range":
		out += "_"
	}
	return out
}

func goType(kind string) string {
	k, ok := kinds[kind]
	if !ok {
		log.Fatalf("unknown kind %q", kind)
	}
	return k.GoType
}

// params renders an interface/method parameter list for the request fields.
func params(c Call) string {
	var b strings.Builder
	for _, f := range c.Req {
		fmt.Fprintf(&b, ", %s %s", lower(f.Name), goType(f.Kind))
	}
	return b.String()
}

// results renders the named result list (response fields + error).
func results(c Call) string {
	var b strings.Builder
	b.WriteString("(")
	for _, f := range c.Resp {
		fmt.Fprintf(&b, "%s %s, ", lower(f.Name), goType(f.Kind))
	}
	b.WriteString("err error)")
	return b.String()
}

func main() {
	out := flag.String("out", "internal/remoting/gen/gen.go", "output file")
	table := flag.String("table", "internal/remoting/gen/calltable.go", "call-classification table output file")
	storeOut := flag.String("storeout", "internal/store/remote_gen.go", "store protocol stubs output file")
	flag.Parse()
	calls, storeCalls := buildSpec(), buildStoreSpec()
	for _, cs := range [][]Call{calls, storeCalls} {
		if err := validate(cs); err != nil {
			log.Fatal(err)
		}
	}
	for _, g := range []struct {
		path string
		gen  func() ([]byte, error)
	}{
		{*out, func() ([]byte, error) { return genAPI(cudaSurface, calls) }},
		{*table, func() ([]byte, error) { return genTable(calls) }},
		{*storeOut, func() ([]byte, error) { return genAPI(storeSurface, storeCalls) }},
	} {
		src, err := g.gen()
		if err != nil {
			log.Fatalf("gen %s: %v", g.path, err)
		}
		if err := os.WriteFile(g.path, src, 0o644); err != nil {
			log.Fatal(err)
		}
	}

	// Report surface size for the curious.
	classes := map[string]int{}
	for _, c := range calls {
		classes[c.Class]++
	}
	var keys []string
	for k := range classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("apigen: %d calls (", len(calls))
	for i, k := range keys {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%d %s", classes[k], k)
	}
	fmt.Printf(") -> %s, %s\n", *out, *table)
	fmt.Printf("apigen: %d store calls -> %s\n", len(storeCalls), *storeOut)
}

// validate enforces spec-level invariants before any code is generated.
func validate(calls []Call) error {
	seen := map[string]bool{}
	ids := map[int]bool{}
	for _, c := range calls {
		if seen[c.Name] {
			return fmt.Errorf("duplicate call %s", c.Name)
		}
		seen[c.Name] = true
		if ids[c.ID] || c.ID <= 0 {
			return fmt.Errorf("call %s: bad or duplicate ID %d", c.Name, c.ID)
		}
		ids[c.ID] = true
		// An Async call is fired one-way on the pipelined lane: it may not
		// carry a response the caller needs, and local calls never hit the
		// wire at all.
		if c.Async {
			if len(c.Resp) > 0 {
				return fmt.Errorf("call %s: Async but has response fields", c.Name)
			}
			if c.Class == "local" {
				return fmt.Errorf("call %s: Async but classed local", c.Name)
			}
		}
		// A batchable call may sit in a batch, whose reply is one status for
		// all of it: the guest reads nothing else from such a call, on any lane.
		if c.Class == "batchable" && len(c.Resp) > 0 {
			return fmt.Errorf("call %s: batchable but has response fields", c.Name)
		}
		// Shared decoding reuses per-decoder scratch, so a second field
		// filling the same scratch in one message would clobber the first.
		perScratch := map[string]string{}
		for _, f := range c.Req {
			sc := kinds[f.Kind].Scratch
			if sc == "" {
				continue
			}
			if first, taken := perScratch[sc]; taken {
				return fmt.Errorf("call %s: request fields %s and %s cannot share the decoder's %q scratch", c.Name, first, f.Name, sc)
			}
			perScratch[sc] = f.Name
		}
		// Bulk fields ride the vectored lane: exactly one per call, on one
		// side only, trailing (the wire bulk region follows the metadata), and
		// restricted to synchronous remote calls: the guest's slice is borrowed
		// into the transport's write until the reply arrives, and a one-way
		// submission has no reply to wait for.
		if err := validateBulk(c); err != nil {
			return err
		}
	}
	return nil
}

func validateBulk(c Call) error {
	reqB, respB := bulkField(c.Req), bulkField(c.Resp)
	if reqB == nil && respB == nil {
		return nil
	}
	if reqB != nil && respB != nil {
		return fmt.Errorf("call %s: bulk allowed on one side only", c.Name)
	}
	for _, side := range []struct {
		name   string
		fields []Field
	}{{"request", c.Req}, {"response", c.Resp}} {
		n := 0
		for i, f := range side.fields {
			if f.Kind != "bulk" {
				continue
			}
			n++
			if i != len(side.fields)-1 {
				return fmt.Errorf("call %s: bulk %s field %s must be last", c.Name, side.name, f.Name)
			}
		}
		if n > 1 {
			return fmt.Errorf("call %s: at most one bulk %s field", c.Name, side.name)
		}
	}
	if c.Class != "remote" {
		return fmt.Errorf("call %s: bulk fields require class remote, got %q", c.Name, c.Class)
	}
	if c.Async {
		return fmt.Errorf("call %s: bulk calls may not be Async (the borrowed request bulk needs a reply to end the borrow)", c.Name)
	}
	if reqB != nil && c.ReqData != "" {
		return fmt.Errorf("call %s: ReqData would double-count the request bulk bytes", c.Name)
	}
	if respB != nil && c.RspData != "" {
		return fmt.Errorf("call %s: RspData would double-count the response bulk bytes", c.Name)
	}
	return nil
}

// genAPI renders one surface's stubs: IDs, messages, Client, Dispatch.
func genAPI(s surface, calls []Call) ([]byte, error) {
	var b bytes.Buffer
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	p("// Code generated by cmd/apigen. DO NOT EDIT.")
	p("")
	p("%s", s.Header)

	// Call IDs.
	if s.Lanes {
		p("// Call identifiers. ID 0 is reserved; remoting.CallBatch (0xFFFF) is the")
		p("// batch container.")
	} else {
		p("// Call identifiers. ID 0 is reserved.")
	}
	p("const (")
	for _, c := range calls {
		p("\tCall%s uint16 = %d", c.Name, c.ID)
	}
	p(")")
	p("")
	p("// NumCalls is the number of generated calls.")
	p("const NumCalls = %d", len(calls))
	p("")

	// Name table and classes.
	p("// callNames maps IDs to API names for diagnostics and statistics.")
	p("var callNames = map[uint16]string{")
	for _, c := range calls {
		p("\tCall%s: %q,", c.Name, c.Name)
	}
	p("}")
	p("")
	p("// CallName returns the API name for a call ID.")
	p("func CallName(id uint16) string {")
	if s.Lanes {
		p("\tif id == remoting.CallBatch {")
		p("\t\treturn \"Batch\"")
		p("\t}")
	}
	p("\tif n, ok := callNames[id]; ok {")
	p("\t\treturn n")
	p("\t}")
	p("\treturn \"?\"")
	p("}")
	p("")
	if s.Lanes {
		emitClasses(p, calls)
	}

	// Interface.
	p("%s", s.APIDoc)
	p("type API interface {")
	for _, c := range calls {
		p("\t// %s %s.", c.Name, c.Doc)
		p("\t%s(p *sim.Proc%s) %s", c.Name, params(c), results(c))
		p("")
	}
	p("}")
	p("")

	// Messages, Append helpers, Client methods.
	p("%s", s.ClientDoc)
	p("type Client struct {")
	p("\tT remoting.Caller")
	if s.Intern {
		p("\tnames wire.Interner // its replies' strings: the same few names, over and over")
	}
	p("}")
	p("")
	for _, c := range calls {
		emitCall(p, s, c)
	}

	// Dispatch.
	if s.Lanes {
		p("// Dispatch decodes one call from payload and executes it against the")
		p("// backend, returning the encoded response and the logical payload bytes")
		p("// that flow back with it (for bandwidth accounting). Calls whose bulk")
		p("// bytes arrived out-of-band need DispatchBulk.")
		p("func Dispatch(p *sim.Proc, b API, payload []byte) (resp []byte, respData int64) {")
		p("\tresp, respData, _ = DispatchBulk(p, b, payload, nil)")
		p("\treturn resp, respData")
		p("}")
		p("")
		p("// DispatchBulk is DispatchTo into a fresh encoder, for a caller that")
		p("// keeps the response: the one allocation per call is the response.")
		p("func DispatchBulk(p *sim.Proc, b API, payload, reqBulk []byte) (resp []byte, respData int64, respBulk []byte) {")
		p("\tvar enc wire.Encoder")
		p("\trespData, respBulk = DispatchTo(p, b, &enc, payload, reqBulk)")
		p("\treturn enc.Bytes(), respData, respBulk")
		p("}")
		p("")
		p("// DispatchTo is the dispatch body: it decodes one call from payload,")
		p("// executes it against the backend and appends the encoded response —")
		p("// the status word, then the result fields of a call that succeeded — to")
		p("// enc, allocating nothing when enc has the room. It returns the logical")
		p("// payload bytes that flow back with the response. The request's")
		p("// reference fields are decoded shared: what the backend receives")
		p("// aliases payload and the decoder, and is dead once DispatchTo returns,")
		p("// when the caller may recycle payload.")
		p("//")
		p("// reqBulk is the request frame's vectored bulk region (nil")
		p("// when the call inlined its bytes, which is how the decode variant is")
		p("// chosen). The backend receives it as a borrowed argument and copies")
		p("// what it retains, unless the transport gave the buffer away and the")
		p("// backend learns so out of band (remoting.BulkLease).")
		p("// When a bulk-response call asked for a vectored reply, respBulk")
		p("// returns the bytes and enc receives only status + metadata. respBulk")
		p("// may be a view of the backend's storage, lent to the reply: it stays")
		p("// as it is until the reply frame is written.")
		p("func DispatchTo(p *sim.Proc, b API, enc *wire.Encoder, payload, reqBulk []byte) (respData int64, respBulk []byte) {")
	} else {
		p("// DispatchTo is the dispatch body: it decodes one call from payload,")
		p("// executes it against the backend and appends the encoded response —")
		p("// the status word, then the result fields of a call that succeeded — to")
		p("// enc. Nothing of payload is referenced once it returns.")
		p("func DispatchTo(p *sim.Proc, b API, enc *wire.Encoder, payload []byte) {")
	}
	p("\tdec := wire.GetDecoder(payload)")
	p("\tdefer wire.PutDecoder(dec)")
	p("\tswitch id := dec.U16(); id {")
	for _, c := range calls {
		emitDispatchCase(p, s, c)
	}
	p("\t}")
	p("\t// An unknown call, or a request that does not decode.")
	p("\tenc.I32(int32(cuda.Code(%s)))", s.BadReq)
	p("\t%s", s.ret())
	p("}")

	src, err := format.Source(b.Bytes())
	if err != nil {
		// Dump the unformatted source to ease generator debugging.
		_ = os.WriteFile("gen.go.bad", b.Bytes(), 0o644)
		return nil, fmt.Errorf("format: %w (unformatted source in gen.go.bad)", err)
	}
	return src, nil
}

// ret renders DispatchTo's plain return: a surface with the lanes returns
// the response's logical payload bytes and bulk region, here none.
func (s surface) ret() string {
	if s.Lanes {
		return "return 0, nil"
	}
	return "return"
}

// emitClasses writes the call-class table of the surface with lanes.
func emitClasses(p func(string, ...any), calls []Call) {
	p("// Class constants classify calls per §V-B: Remote calls need the API")
	p("// server; Local calls are answerable by the guest library; Batchable")
	p("// calls have no immediately-needed result and may be deferred.")
	p("type Class int")
	p("")
	p("// Call classes.")
	p("const (")
	p("\tClassRemote Class = iota")
	p("\tClassLocal")
	p("\tClassBatchable")
	p(")")
	p("")
	p("var callClasses = [NumCalls + 2]Class{")
	for _, c := range calls {
		cl := map[string]string{"remote": "ClassRemote", "local": "ClassLocal", "batchable": "ClassBatchable"}[c.Class]
		if cl == "" {
			log.Fatalf("call %s: bad class %q", c.Name, c.Class)
		}
		p("\tCall%s: %s,", c.Name, cl)
	}
	p("}")
	p("")
	p("// CallClass returns the class of a call ID. An unknown ID reads the table's spare last slot: ClassRemote.")
	p("func CallClass(id uint16) Class { return callClasses[min(id, NumCalls+1)] }")
	p("")
}

// genTable renders calltable.go: the machine-readable call-classification
// table. It is the single source of truth for which calls may ride the
// one-way async lane (consumed by the guest submit guard, the API server's
// CallAsync validator, and the asyncsafe analyzer) and which calls establish
// server-side state that crash recovery must replay.
func genTable(calls []Call) ([]byte, error) {
	var b bytes.Buffer
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	p("// Code generated by cmd/apigen. DO NOT EDIT.")
	p("")
	p("package gen")
	p("")
	p("// DeferrableCalls names the calls that are safe to submit one-way on the")
	p("// pipelined async lane (OptAsync): result-free, with errors allowed to")
	p("// latch until the next fence. Free is intentionally absent — it fences.")
	p("var DeferrableCalls = map[string]bool{")
	for _, c := range calls {
		if c.Async {
			p("\t%q: true,", c.Name)
		}
	}
	p("}")
	p("")
	p("var deferrableByID = [NumCalls + 2]bool{")
	for _, c := range calls {
		if c.Async {
			p("\tCall%s: true,", c.Name)
		}
	}
	p("}")
	p("")
	p("var establishesByID = [NumCalls + 2]bool{")
	for _, c := range calls {
		if c.Establishes {
			p("\tCall%s: true,", c.Name)
		}
	}
	p("}")
	p("")
	p("// CallIsDeferrable reports whether a call ID may be wrapped in a")
	p("// remoting.CallAsync envelope (never, for an ID past the table: the spare slot).")
	p("func CallIsDeferrable(id uint16) bool { return deferrableByID[min(id, NumCalls+1)] }")
	p("")
	p("// CallEstablishesState reports whether a call ID creates server-side")
	p("// session state that a recovered session must re-establish.")
	p("func CallEstablishesState(id uint16) bool { return establishesByID[min(id, NumCalls+1)] }")

	src, err := format.Source(b.Bytes())
	if err != nil {
		_ = os.WriteFile("calltable.go.bad", b.Bytes(), 0o644)
		return nil, fmt.Errorf("format: %w (unformatted source in calltable.go.bad)", err)
	}
	return src, nil
}

// emitCall writes the message types, Append helper and Client method.
func emitCall(p func(string, ...any), s surface, c Call) {
	p("// --- %s ---", c.Name)
	p("")

	// Request struct.
	p("// %sReq is the request message of %s.", c.Name, c.Name)
	p("type %sReq struct {", c.Name)
	for _, f := range c.Req {
		p("\t%s %s", f.Name, goType(f.Kind))
	}
	p("}")
	p("")
	p("// Encode serializes the request.")
	p("func (m *%sReq) Encode(e *wire.Encoder) {", c.Name)
	for _, f := range c.Req {
		p("\t"+kinds[f.Kind].Enc, "m."+f.Name)
	}
	if len(c.Req) == 0 {
		p("\t_ = e")
	}
	p("}")
	p("")
	p("// Decode deserializes the request.")
	p("func (m *%sReq) Decode(d *wire.Decoder) {", c.Name)
	for _, f := range c.Req {
		p("\tm.%s = %s", f.Name, kinds[f.Kind].Dec)
	}
	if len(c.Req) == 0 {
		p("\t_ = d")
	}
	p("}")
	p("")
	if hasShared(c.Req) {
		p("// DecodeShared deserializes the request without copying: decoded")
		p("// slices alias d and are valid only until d resets. Dispatch uses it")
		p("// (its decoder outlives the backend call); backends must clone any")
		p("// shared field they retain.")
		p("func (m *%sReq) DecodeShared(d *wire.Decoder) {", c.Name)
		for _, f := range c.Req {
			dec := kinds[f.Kind].Dec
			if s := kinds[f.Kind].DecShared; s != "" {
				dec = s
			}
			p("\tm.%s = %s", f.Name, dec)
		}
		p("}")
		p("")
	}
	if b := bulkField(c.Req); b != nil {
		emitMeta(p, c.Name+"Req", "request", b.Name, c.Req)
	}

	// Response struct.
	p("// %sResp is the response message of %s.", c.Name, c.Name)
	p("type %sResp struct {", c.Name)
	for _, f := range c.Resp {
		p("\t%s %s", f.Name, goType(f.Kind))
	}
	p("}")
	p("")
	p("// Encode serializes the response.")
	p("func (m *%sResp) Encode(e *wire.Encoder) {", c.Name)
	for _, f := range c.Resp {
		p("\t"+kinds[f.Kind].Enc, "m."+f.Name)
	}
	if len(c.Resp) == 0 {
		p("\t_ = e")
	}
	p("}")
	p("")
	p("// Decode deserializes the response.")
	p("func (m *%sResp) Decode(d *wire.Decoder) {", c.Name)
	for _, f := range c.Resp {
		p("\tm.%s = %s", f.Name, kinds[f.Kind].Dec)
	}
	if len(c.Resp) == 0 {
		p("\t_ = d")
	}
	p("}")
	p("")
	if b := bulkField(c.Resp); b != nil {
		emitMeta(p, c.Name+"Resp", "response", b.Name, c.Resp)
	}

	// Append helper.
	if s.Lanes {
		p("// Append%sCall appends an encoded %s call (ID + request) to e,", c.Name, c.Name)
		p("// for direct sends and for batch assembly.")
	} else {
		p("// Append%sCall appends an encoded %s call (ID + request) to e.", c.Name, c.Name)
	}
	p("func Append%sCall(e *wire.Encoder%s) {", c.Name, params(c))
	var lits []string
	for _, f := range c.Req {
		lits = append(lits, fmt.Sprintf("%s: %s", f.Name, lower(f.Name)))
	}
	p("\te.U16(Call%s)", c.Name)
	if bulkField(c.Resp) != nil {
		p("\t// The vec-response flag: false here — Append encodes the inline")
		p("\t// form, whose reply carries its bytes inside the payload.")
		p("\te.Bool(false)")
	}
	p("\t(&%sReq{%s}).Encode(e)", c.Name, strings.Join(lits, ", "))
	p("}")
	p("")

	emitClientMethods(p, s, c)
}

// emitClientMethods writes the Client method(s) for one call: the plain
// API-conformant method, a vectored fast path when the call carries a bulk
// field, and a *Into variant (caller-owned destination buffer) for calls
// whose response carries the bulk.
func emitClientMethods(p func(string, ...any), s surface, c Call) {
	reqB, respB := bulkField(c.Req), bulkField(c.Resp)

	if respB != nil {
		// Interface method delegates to the Into variant.
		p("// %s %s.", c.Name, c.Doc)
		var args []string
		for _, f := range c.Req {
			args = append(args, lower(f.Name))
		}
		callArgs := ""
		if len(args) > 0 {
			callArgs = ", " + strings.Join(args, ", ")
		}
		p("func (c *Client) %s(p *sim.Proc%s) %s {", c.Name, params(c), results(c))
		p("\treturn c.%sInto(p%s, nil)", c.Name, callArgs)
		p("}")
		p("")
		p("// %sInto is %s with a caller-owned destination buffer: over a", c.Name, c.Name)
		p("// VecCaller the reply's bulk region is scatter-read into dst when it")
		p("// fits, making a pre-sized read allocation-free. The")
		p("// returned %s may alias dst.", lower(respB.Name))
		p("func (c *Client) %sInto(p *sim.Proc%s, dst []byte) %s {", c.Name, params(c), results(c))
	} else {
		p("// %s %s.", c.Name, c.Doc)
		p("func (c *Client) %s(p *sim.Proc%s) %s {", c.Name, params(c), results(c))
	}

	// Vectored fast path for bulk calls over a VecCaller.
	if reqB != nil || respB != nil {
		cond := "ok"
		if reqB != nil {
			cond = fmt.Sprintf("ok && len(%s) > 0", lower(reqB.Name))
		}
		p("\tif _, ok := c.T.(remoting.VecCaller); %s {", cond)
		p("\t\treturn c.%svec(p%s)", lower(c.Name), vecCallArgs(c, respB != nil))
		p("\t}")
	}

	emitClientInlineBody(p, c, !s.Lanes && c.Async, s.Intern)
	p("}")
	p("")

	if reqB != nil || respB != nil {
		emitClientVecMethod(p, c, reqB, respB)
	}
}

// vecCallArgs renders the argument list forwarded to the private vec method.
func vecCallArgs(c Call, withDst bool) string {
	var b strings.Builder
	for _, f := range c.Req {
		fmt.Fprintf(&b, ", %s", lower(f.Name))
	}
	if withDst {
		b.WriteString(", dst")
	}
	return b.String()
}

// emitClientVecMethod writes the private vectored implementation of a bulk
// call: metadata encoded normally, bulk borrowed through RoundtripVec.
func emitClientVecMethod(p func(string, ...any), c Call, reqB, respB *Field) {
	dstParam := ""
	if respB != nil {
		dstParam = ", dst []byte"
	}
	p("// %svec is the vectored path of %s.", lower(c.Name), c.Name)
	p("func (c *Client) %svec(p *sim.Proc%s%s) %s {", lower(c.Name), params(c), dstParam, results(c))
	p("\tvc := c.T.(remoting.VecCaller)")
	p("\tenc := wire.GetEncoder()")
	p("\tenc.U16(Call%s)", c.Name)
	if respB != nil {
		p("\t// Ask for a vectored reply: the response bytes come back as the")
		p("\t// frame's bulk region instead of an inline field.")
		p("\tenc.Bool(true)")
	}
	var metaLits []string
	for _, f := range c.Req {
		if f.Kind == "bulk" {
			continue
		}
		metaLits = append(metaLits, fmt.Sprintf("%s: %s", f.Name, lower(f.Name)))
	}
	if reqB != nil {
		p("\t(&%sReq{%s}).EncodeMeta(enc)", c.Name, strings.Join(metaLits, ", "))
		p("\trespB, _, rerr := vc.RoundtripVec(p, enc.Bytes(), %s, nil)", lower(reqB.Name))
	} else {
		p("\t(&%sReq{%s}).Encode(enc)", c.Name, strings.Join(metaLits, ", "))
		p("\trespB, respBulk, rerr := vc.RoundtripVec(p, enc.Bytes(), nil, dst)")
	}
	p("\tif rerr != nil {")
	p("\t\t// The transport may still hold the request; drop the encoder.")
	p("\t\terr = rerr")
	p("\t\treturn")
	p("\t}")
	p("\t// A returned RoundtripVec has fully consumed the request payload.")
	p("\twire.PutEncoder(enc)")
	p("\tdec := wire.GetDecoder(respB)")
	p("\tdefer wire.PutDecoder(dec)")
	p("\tif statusCode := int(dec.I32()); statusCode != 0 {")
	p("\t\terr = cuda.FromCode(statusCode)")
	p("\t\treturn")
	p("\t}")
	nonBulkResp := 0
	for _, f := range c.Resp {
		if f.Kind != "bulk" {
			nonBulkResp++
		}
	}
	if nonBulkResp > 0 {
		p("\tvar resp %sResp", c.Name)
		p("\tresp.DecodeMeta(dec)")
		p("\tif err = dec.Err(); err != nil {")
		p("\t\treturn")
		p("\t}")
		for _, f := range c.Resp {
			if f.Kind == "bulk" {
				continue
			}
			p("\t%s = resp.%s", lower(f.Name), f.Name)
		}
	} else {
		p("\tif err = dec.Err(); err != nil {")
		p("\t\treturn")
		p("\t}")
	}
	if respB != nil {
		p("\t%s = respBulk", lower(respB.Name))
	}
	p("\treturn")
	p("}")
	p("")
}

// emitClientInlineBody writes the classic request/response body shared by
// plain calls and the inline fallback of bulk calls. A oneWay call is submitted
// on the transport's async lane instead, when it has one. With intern, a reply
// with results decodes its strings through the Client's Interner.
func emitClientInlineBody(p func(string, ...any), c Call, oneWay, intern bool) {
	reqData := "0"
	if c.ReqData != "" {
		reqData = lower(c.ReqData)
	}
	p("\tenc := wire.GetEncoder()")
	var args []string
	for _, f := range c.Req {
		args = append(args, lower(f.Name))
	}
	callArgs := ""
	if len(args) > 0 {
		callArgs = ", " + strings.Join(args, ", ")
	}
	p("\tAppend%sCall(enc%s)", c.Name, callArgs)
	if oneWay {
		p("\tif a, ok := c.T.(remoting.AsyncCaller); ok {")
		p("\t\t// One-way lane: the message outlives this call, so it travels in a")
		p("\t\t// buffer of the payload pool, which Submit takes and the message's")
		p("\t\t// consumer returns.")
		p("\t\treq := append(wire.GetBuf(enc.Len()), enc.Bytes()...)")
		p("\t\twire.PutEncoder(enc)")
		p("\t\treturn a.Submit(p, req, int64(%s))", reqData)
		p("\t}")
		p("\t// Transport without an async lane: degrade to a round trip.")
	}
	p("\trespB, rerr := c.T.Roundtrip(p, enc.Bytes(), int64(%s))", reqData)
	p("\tif rerr != nil {")
	p("\t\t// The transport may still hold the request; drop the encoder.")
	p("\t\terr = rerr")
	p("\t\treturn")
	p("\t}")
	p("\t// A returned Roundtrip has fully consumed the request payload.")
	p("\twire.PutEncoder(enc)")
	p("\tdec := wire.GetDecoder(respB)")
	p("\tdefer wire.PutDecoder(dec)")
	p("\tif statusCode := int(dec.I32()); statusCode != 0 {")
	p("\t\terr = cuda.FromCode(statusCode)")
	p("\t\treturn")
	p("\t}")
	if len(c.Resp) > 0 {
		if intern {
			p("\tdec.SetInterner(&c.names)")
		}
		p("\tvar resp %sResp", c.Name)
		p("\tresp.Decode(dec)")
		p("\tif err = dec.Err(); err != nil {")
		p("\t\treturn")
		p("\t}")
		for _, f := range c.Resp {
			p("\t%s = resp.%s", lower(f.Name), f.Name)
		}
	} else {
		p("\terr = dec.Err()")
	}
	p("\treturn")
}

// emitDispatchCase writes the server-side switch case for one call.
func emitDispatchCase(p func(string, ...any), s surface, c Call) {
	reqB := bulkField(c.Req)
	respB := bulkField(c.Resp)
	p("\tcase Call%s:", c.Name)
	if respB != nil {
		p("\t\t// The vec-response flag travels on the wire right after the call")
		p("\t\t// ID: true when the client ran the vectored path and wants the")
		p("\t\t// bulk %s returned out-of-band, false for the inline encoding.", respB.Name)
		p("\t\tvecResp := dec.Bool()")
	}
	p("\t\tvar req %sReq", c.Name)
	switch {
	case reqB != nil:
		p("\t\tif reqBulk != nil {")
		p("\t\t\t// Vectored request: the bulk %s arrived out-of-band; the", reqB.Name)
		p("\t\t\t// payload holds only the metadata fields.")
		p("\t\t\treq.DecodeMeta(dec)")
		p("\t\t\treq.%s = reqBulk", reqB.Name)
		p("\t\t} else {")
		p("\t\t\treq.DecodeShared(dec)")
		p("\t\t}")
	case hasShared(c.Req):
		p("\t\treq.DecodeShared(dec)")
	default:
		p("\t\treq.Decode(dec)")
	}
	p("\t\tif dec.Err() != nil {")
	p("\t\t\tbreak")
	p("\t\t}")
	var args []string
	for _, f := range c.Req {
		args = append(args, "req."+f.Name)
	}
	callArgs := ""
	if len(args) > 0 {
		callArgs = ", " + strings.Join(args, ", ")
	}
	var outs []string
	for _, f := range c.Resp {
		outs = append(outs, lower(f.Name))
	}
	if len(outs) > 0 {
		p("\t\t%s, err := b.%s(p%s)", strings.Join(outs, ", "), c.Name, callArgs)
	} else {
		p("\t\terr := b.%s(p%s)", c.Name, callArgs)
	}
	if len(c.Resp) == 0 {
		p("\t\tenc.I32(int32(cuda.Code(err)))")
		p("\t\t%s", s.ret())
		return
	}
	p("\t\tif err != nil {")
	p("\t\t\tenc.I32(int32(cuda.Code(err)))")
	p("\t\t\t%s", s.ret())
	p("\t\t}")
	var lits, metaLits []string
	for _, f := range c.Resp {
		lit := fmt.Sprintf("%s: %s", f.Name, lower(f.Name))
		lits = append(lits, lit)
		if f.Kind != "bulk" {
			metaLits = append(metaLits, lit)
		}
	}
	if respB != nil {
		p("\t\tif vecResp {")
		p("\t\t\tenc.I32(0)")
		p("\t\t\t(&%sResp{%s}).EncodeMeta(enc)", c.Name, strings.Join(metaLits, ", "))
		p("\t\t\treturn 0, %s", lower(respB.Name))
		p("\t\t}")
	}
	p("\t\tenc.Grow(%s)", sizeHint(c.Resp))
	p("\t\tenc.I32(0)")
	p("\t\t(&%sResp{%s}).Encode(enc)", c.Name, strings.Join(lits, ", "))
	if c.RspData != "" {
		p("\t\treturn int64(req.%s), nil", c.RspData)
	} else {
		p("\t\t%s", s.ret())
	}
}

// emitMeta writes EncodeMeta/DecodeMeta for a message carrying a bulk
// field: the same encoding as Encode/Decode minus the bulk field, whose
// bytes travel as the frame's vectored bulk region.
func emitMeta(p func(string, ...any), typ, side, bulkName string, fields []Field) {
	var metas []Field
	for _, f := range fields {
		if f.Kind != "bulk" {
			metas = append(metas, f)
		}
	}
	p("// EncodeMeta serializes the %s without the bulk field %s,", side, bulkName)
	p("// whose bytes travel as the frame's vectored bulk region.")
	p("func (m *%s) EncodeMeta(e *wire.Encoder) {", typ)
	for _, f := range metas {
		p("\t"+kinds[f.Kind].Enc, "m."+f.Name)
	}
	if len(metas) == 0 {
		p("\t_ = e")
	}
	p("}")
	p("")
	p("// DecodeMeta deserializes the %s's metadata fields; the bulk", side)
	p("// field %s is delivered out-of-band and must be attached by the caller.", bulkName)
	p("func (m *%s) DecodeMeta(d *wire.Decoder) {", typ)
	for _, f := range metas {
		p("\tm.%s = %s", f.Name, kinds[f.Kind].Dec)
	}
	if len(metas) == 0 {
		p("\t_ = d")
	}
	p("}")
	p("")
}
