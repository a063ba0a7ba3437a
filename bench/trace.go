package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/faas"
	"dgsf/internal/gpu"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
	"dgsf/internal/store"
)

// hostNow is the benchmark's only read of the wall clock.
func hostNow() time.Time {
	//lint:allow simdeterminism the benchmark measures host time by design
	return time.Now()
}

// maxTraceSpans bounds the spans kept for the Chrome trace file; aggregates
// cover every span regardless. paper_mix alone produces ~3.5 M spans.
const maxTraceSpans = 50_000

// Span categories: one per decorated boundary.
const (
	catAPI    = "guest"    // around a gen.API method (top of the guest shim)
	catCaller = "remoting" // around Roundtrip/RoundtripVec/RoundtripTimeout/Submit
	catStore  = "store"    // around a store.Interface method
	catInv    = "faas"     // queue/download/exec rebuilt from faas.Invocation
)

// spanRec is one finished span in both clocks (ns; host relative to the
// tracer's start, virtual as the engine reports it).
type spanRec struct {
	name, cat  string
	inv        int32 // invocation id (0: none)
	id, parent int32
	hostStart  int64
	hostDur    int64
	virtStart  int64
	virtDur    int64
}

// aggKey names an aggregate: one per span category and name.
type aggKey struct{ cat, name string }

// spanAgg sums every span of one category/name.
type spanAgg struct {
	n                    int64
	host, virt           int64 // total duration
	childHost, childVirt int64 // part covered by child spans
}

// tracer collects spans from the benchmark's own decorators plus the sim
// engine's lifecycle events. Spans are recorded by the one running simulated
// process at a time, so only the sim-event counters (which the TCP server's
// engine bumps from its own goroutines) are atomic.
type tracer struct {
	t0     time.Time
	nextID int32
	spans  []spanRec
	nspans int64
	aggs   map[aggKey]*spanAgg
	ctxs   map[string]*invCtx // by guest proc name
	nextIn int32

	simRuns, simSpawns, simBlocks atomic.Int64
	goroutinesPeak                atomic.Int64
	frozen                        atomic.Bool
}

func newTracer() *tracer {
	return &tracer{t0: hostNow(), aggs: make(map[aggKey]*spanAgg), ctxs: make(map[string]*invCtx)}
}

// freeze stops the sim-event counters. A workload calls it when its last
// process is done, so that daemons still winding down (and the engine's
// teardown) do not make the counts depend on goroutine scheduling.
func (t *tracer) freeze() { t.frozen.Store(true) }

// reset drops everything recorded so far; installed hooks stay valid.
func (t *tracer) reset() {
	t.frozen.Store(false)
	t.t0, t.nextID, t.nextIn, t.nspans = hostNow(), 0, 0, 0
	t.spans = t.spans[:0]
	t.aggs, t.ctxs = make(map[aggKey]*spanAgg), make(map[string]*invCtx)
	t.simRuns.Store(0)
	t.simSpawns.Store(0)
	t.simBlocks.Store(0)
	t.goroutinesPeak.Store(0)
}

func (t *tracer) now() int64 { return int64(hostNow().Sub(t.t0)) }

// simHook is installed with sim.Engine.SetTrace. It runs with the engine
// lock held, so it only counts.
func (t *tracer) simHook(_ time.Duration, _ string, event string) {
	if t.frozen.Load() {
		return
	}
	switch {
	case event == "run":
		t.simRuns.Add(1)
	case event == "spawn":
		t.simSpawns.Add(1)
		if n := int64(runtime.NumGoroutine()); n > t.goroutinesPeak.Load() {
			t.goroutinesPeak.Store(n)
		}
	case strings.HasPrefix(event, "block:"):
		t.simBlocks.Add(1)
	}
}

// invCtx links the decorators of one invocation: the API decorator's open
// span is the parent of the caller spans issued beneath it.
type invCtx struct {
	id  int32
	api openSpan
}

type openSpan struct {
	active               bool
	id                   int32
	hostStart, virtStart int64
	childHost, childVirt int64
}

// ctxFor returns the invocation context of the guest process named name.
// faas names an invocation's process uniquely (fn-<name>-<seq>), and both
// DialHook and Function.Run receive that process.
func (t *tracer) ctxFor(name string) *invCtx {
	c, ok := t.ctxs[name]
	if !ok {
		t.nextIn++
		c = &invCtx{id: t.nextIn}
		t.ctxs[name] = c
	}
	return c
}

// freshCtx starts a new invocation under a process name that repeats
// (single_fn runs every function as "exp" on a fresh engine).
func (t *tracer) freshCtx(name string) {
	delete(t.ctxs, name)
	t.ctxFor(name)
}

func (t *tracer) newID() int32 { t.nextID++; return t.nextID }

func (t *tracer) record(r spanRec, childHost, childVirt int64) {
	key := aggKey{r.cat, r.name}
	a := t.aggs[key]
	if a == nil {
		a = &spanAgg{}
		t.aggs[key] = a
	}
	a.n++
	a.host += r.hostDur
	a.virt += r.virtDur
	a.childHost += childHost
	a.childVirt += childVirt
	t.nspans++
	if len(t.spans) < maxTraceSpans {
		t.spans = append(t.spans, r)
	}
}

// catTotal sums the aggregates of one category.
func (t *tracer) catTotal(cat string) spanAgg {
	var out spanAgg
	for key, a := range t.aggs {
		if key.cat == cat {
			out.n += a.n
			out.host += a.host
			out.virt += a.virt
			out.childHost += a.childHost
			out.childVirt += a.childVirt
		}
	}
	return out
}

// --- gen.API decorator ---

// tracedAPI records one span around each gen.API method the workload bodies
// call on their hot paths; the rest pass through the embedded interface
// unrecorded (each runs once per invocation).
type tracedAPI struct {
	gen.API
	t *tracer
	c *invCtx
}

func (t *tracer) wrapAPI(p *sim.Proc, api gen.API) *tracedAPI {
	return &tracedAPI{API: api, t: t, c: t.ctxFor(p.Name())}
}

func (a *tracedAPI) begin(p *sim.Proc) {
	o := &a.c.api
	*o = openSpan{active: true, id: a.t.newID(), hostStart: a.t.now(), virtStart: int64(p.Now())}
}

func (a *tracedAPI) end(p *sim.Proc, name string) {
	o := &a.c.api
	a.t.record(spanRec{
		name: name, cat: catAPI, inv: a.c.id, id: o.id,
		hostStart: o.hostStart, hostDur: a.t.now() - o.hostStart,
		virtStart: o.virtStart, virtDur: int64(p.Now()) - o.virtStart,
	}, o.childHost, o.childVirt)
	o.active = false
}

func (a *tracedAPI) Hello(p *sim.Proc, fnID string, memLimit int64) error {
	a.begin(p)
	err := a.API.Hello(p, fnID, memLimit)
	a.end(p, "Hello")
	return err
}

func (a *tracedAPI) Bye(p *sim.Proc) error {
	a.begin(p)
	err := a.API.Bye(p)
	a.end(p, "Bye")
	return err
}

func (a *tracedAPI) MemGetInfo(p *sim.Proc) (int64, int64, error) {
	a.begin(p)
	free, total, err := a.API.MemGetInfo(p)
	a.end(p, "MemGetInfo")
	return free, total, err
}

func (a *tracedAPI) DeviceSynchronize(p *sim.Proc) error {
	a.begin(p)
	err := a.API.DeviceSynchronize(p)
	a.end(p, "DeviceSynchronize")
	return err
}

func (a *tracedAPI) Malloc(p *sim.Proc, size int64) (cuda.DevPtr, error) {
	a.begin(p)
	ptr, err := a.API.Malloc(p, size)
	a.end(p, "Malloc")
	return ptr, err
}

func (a *tracedAPI) Free(p *sim.Proc, ptr cuda.DevPtr) error {
	a.begin(p)
	err := a.API.Free(p, ptr)
	a.end(p, "Free")
	return err
}

func (a *tracedAPI) Memset(p *sim.Proc, ptr cuda.DevPtr, value byte, size int64) error {
	a.begin(p)
	err := a.API.Memset(p, ptr, value, size)
	a.end(p, "Memset")
	return err
}

func (a *tracedAPI) MemcpyH2D(p *sim.Proc, dst cuda.DevPtr, src gpu.HostBuffer, size int64) error {
	a.begin(p)
	err := a.API.MemcpyH2D(p, dst, src, size)
	a.end(p, "MemcpyH2D")
	return err
}

func (a *tracedAPI) MemcpyD2H(p *sim.Proc, src cuda.DevPtr, size int64) (gpu.HostBuffer, error) {
	a.begin(p)
	buf, err := a.API.MemcpyD2H(p, src, size)
	a.end(p, "MemcpyD2H")
	return buf, err
}

func (a *tracedAPI) PointerGetAttributes(p *sim.Proc, ptr cuda.DevPtr) (cuda.PtrAttributes, error) {
	a.begin(p)
	at, err := a.API.PointerGetAttributes(p, ptr)
	a.end(p, "PointerGetAttributes")
	return at, err
}

func (a *tracedAPI) LaunchKernel(p *sim.Proc, lp cuda.LaunchParams) error {
	a.begin(p)
	err := a.API.LaunchKernel(p, lp)
	a.end(p, "LaunchKernel")
	return err
}

func (a *tracedAPI) StreamSynchronize(p *sim.Proc, h cuda.StreamHandle) error {
	a.begin(p)
	err := a.API.StreamSynchronize(p, h)
	a.end(p, "StreamSynchronize")
	return err
}

func (a *tracedAPI) DnnForward(p *sim.Proc, h cudalibs.DNNHandle, op string, dur time.Duration, bufs []cuda.DevPtr, descs []uint64) error {
	a.begin(p)
	err := a.API.DnnForward(p, h, op, dur, bufs, descs)
	a.end(p, "DnnForward")
	return err
}

func (a *tracedAPI) BlasGemm(p *sim.Proc, h cudalibs.BLASHandle, dur time.Duration, bufs []cuda.DevPtr) error {
	a.begin(p)
	err := a.API.BlasGemm(p, h, dur, bufs)
	a.end(p, "BlasGemm")
	return err
}

func (a *tracedAPI) MemWrite(p *sim.Proc, dst cuda.DevPtr, data []byte) error {
	a.begin(p)
	err := a.API.MemWrite(p, dst, data)
	a.end(p, "MemWrite")
	return err
}

// MemReadInto is not part of gen.API; the guest library and the generated
// client offer it for allocation-free bulk reads, and tcp_remote uses it.
func (a *tracedAPI) MemReadInto(p *sim.Proc, src cuda.DevPtr, size int64, dst []byte) ([]byte, error) {
	a.begin(p)
	out, err := a.API.(bulkReader).MemReadInto(p, src, size, dst)
	a.end(p, "MemReadInto")
	return out, err
}

func (a *tracedAPI) createDesc(p *sim.Proc, name string, fn func(*sim.Proc) (cudalibs.Descriptor, error)) (cudalibs.Descriptor, error) {
	a.begin(p)
	d, err := fn(p)
	a.end(p, name)
	return d, err
}

func (a *tracedAPI) useDesc(p *sim.Proc, name string, d cudalibs.Descriptor, fn func(*sim.Proc, cudalibs.Descriptor) error) error {
	a.begin(p)
	err := fn(p, d)
	a.end(p, name)
	return err
}

func (a *tracedAPI) DnnCreateTensorDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return a.createDesc(p, "DnnCreateTensorDescriptor", a.API.DnnCreateTensorDescriptor)
}
func (a *tracedAPI) DnnSetTensorDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return a.useDesc(p, "DnnSetTensorDescriptor", d, a.API.DnnSetTensorDescriptor)
}
func (a *tracedAPI) DnnDestroyTensorDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return a.useDesc(p, "DnnDestroyTensorDescriptor", d, a.API.DnnDestroyTensorDescriptor)
}
func (a *tracedAPI) DnnCreateFilterDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return a.createDesc(p, "DnnCreateFilterDescriptor", a.API.DnnCreateFilterDescriptor)
}
func (a *tracedAPI) DnnSetFilterDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return a.useDesc(p, "DnnSetFilterDescriptor", d, a.API.DnnSetFilterDescriptor)
}
func (a *tracedAPI) DnnDestroyFilterDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return a.useDesc(p, "DnnDestroyFilterDescriptor", d, a.API.DnnDestroyFilterDescriptor)
}
func (a *tracedAPI) DnnCreateConvolutionDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return a.createDesc(p, "DnnCreateConvolutionDescriptor", a.API.DnnCreateConvolutionDescriptor)
}
func (a *tracedAPI) DnnSetConvolutionDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return a.useDesc(p, "DnnSetConvolutionDescriptor", d, a.API.DnnSetConvolutionDescriptor)
}
func (a *tracedAPI) DnnDestroyConvolutionDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return a.useDesc(p, "DnnDestroyConvolutionDescriptor", d, a.API.DnnDestroyConvolutionDescriptor)
}
func (a *tracedAPI) DnnCreateActivationDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return a.createDesc(p, "DnnCreateActivationDescriptor", a.API.DnnCreateActivationDescriptor)
}
func (a *tracedAPI) DnnSetActivationDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return a.useDesc(p, "DnnSetActivationDescriptor", d, a.API.DnnSetActivationDescriptor)
}
func (a *tracedAPI) DnnDestroyActivationDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return a.useDesc(p, "DnnDestroyActivationDescriptor", d, a.API.DnnDestroyActivationDescriptor)
}

// bulkReader is the allocation-free read both *guest.Lib and *gen.Client
// offer beside gen.API.
type bulkReader interface {
	MemReadInto(p *sim.Proc, src cuda.DevPtr, size int64, dst []byte) ([]byte, error)
}

// --- remoting.Caller decorator ---

// conn is what both built-in transports implement and the guest library
// probes for; the decorator must offer all of it or the guest would silently
// change lanes under tracing.
type conn interface {
	remoting.AsyncCaller
	remoting.DeadlineCaller
	remoting.VecCaller
}

type tracedConn struct {
	inner conn
	t     *tracer
	c     *invCtx
}

// wrapConn decorates a transport. p is the process that will issue the
// calls (the invocation's guest process).
func (t *tracer) wrapConn(p *sim.Proc, c remoting.AsyncCaller) remoting.AsyncCaller {
	return &tracedConn{inner: c.(conn), t: t, c: t.ctxFor(p.Name())}
}

// dialHook has the shape of faas.Backend.DialHook / FleetBackend.DialHook.
func (t *tracer) dialHook(p *sim.Proc, c remoting.AsyncCaller) remoting.AsyncCaller {
	return t.wrapConn(p, c)
}

func (c *tracedConn) span(p *sim.Proc, name string, hs, vs int64) {
	hd, vd := c.t.now()-hs, int64(p.Now())-vs
	r := spanRec{name: name, cat: catCaller, inv: c.c.id, id: c.t.newID(),
		hostStart: hs, hostDur: hd, virtStart: vs, virtDur: vd}
	if o := &c.c.api; o.active {
		r.parent = o.id
		o.childHost += hd
		o.childVirt += vd
	}
	c.t.record(r, 0, 0)
}

func (c *tracedConn) Roundtrip(p *sim.Proc, req []byte, reqData int64) ([]byte, error) {
	hs, vs := c.t.now(), int64(p.Now())
	resp, err := c.inner.Roundtrip(p, req, reqData)
	c.span(p, "Roundtrip", hs, vs)
	return resp, err
}

func (c *tracedConn) RoundtripTimeout(p *sim.Proc, req []byte, reqData int64, d time.Duration) ([]byte, error) {
	hs, vs := c.t.now(), int64(p.Now())
	resp, err := c.inner.RoundtripTimeout(p, req, reqData, d)
	c.span(p, "RoundtripTimeout", hs, vs)
	return resp, err
}

func (c *tracedConn) RoundtripVec(p *sim.Proc, req, reqBulk, respDst []byte) ([]byte, []byte, error) {
	hs, vs := c.t.now(), int64(p.Now())
	resp, bulk, err := c.inner.RoundtripVec(p, req, reqBulk, respDst)
	c.span(p, "RoundtripVec", hs, vs)
	return resp, bulk, err
}

func (c *tracedConn) Submit(p *sim.Proc, req []byte, reqData int64) error {
	hs, vs := c.t.now(), int64(p.Now())
	err := c.inner.Submit(p, req, reqData)
	c.span(p, "Submit", hs, vs)
	return err
}

func (c *tracedConn) ProtoVersion() int { return c.inner.ProtoVersion() }
func (c *tracedConn) Close()            { c.inner.Close() }

// --- store.Interface decorator ---

// storeStats counts the operations seen by every tracedStore of one run.
type storeStats struct {
	gets, lists, creates, updates, statusUpdates, deletes, watches int64
	listItems                                                      int64
	localHost                                                      int64 // ns inside non-parking (local) calls
}

// tracedStore records one span per store operation. local marks a handle on
// the in-process store, whose calls never park: only there is the host
// duration the operation's own cost.
type tracedStore struct {
	inner store.Interface
	t     *tracer
	s     *storeStats
	local bool
}

func (s *tracedStore) span(p *sim.Proc, name string, hs, vs int64) {
	hd := s.t.now() - hs
	if s.local {
		s.s.localHost += hd
	}
	s.t.record(spanRec{name: name, cat: catStore, id: s.t.newID(),
		hostStart: hs, hostDur: hd, virtStart: vs, virtDur: int64(p.Now()) - vs}, 0, 0)
}

func (s *tracedStore) Get(p *sim.Proc, kind store.Kind, name string) (store.Resource, error) {
	hs, vs := s.t.now(), int64(p.Now())
	r, err := s.inner.Get(p, kind, name)
	s.s.gets++
	s.span(p, "Get", hs, vs)
	return r, err
}

func (s *tracedStore) List(p *sim.Proc, kind store.Kind) ([]store.Resource, uint64, error) {
	hs, vs := s.t.now(), int64(p.Now())
	rs, rv, err := s.inner.List(p, kind)
	s.s.lists++
	s.s.listItems += int64(len(rs))
	s.span(p, "List", hs, vs)
	return rs, rv, err
}

func (s *tracedStore) Create(p *sim.Proc, r store.Resource) (store.Resource, error) {
	hs, vs := s.t.now(), int64(p.Now())
	out, err := s.inner.Create(p, r)
	s.s.creates++
	s.span(p, "Create", hs, vs)
	return out, err
}

func (s *tracedStore) Update(p *sim.Proc, r store.Resource) (store.Resource, error) {
	hs, vs := s.t.now(), int64(p.Now())
	out, err := s.inner.Update(p, r)
	s.s.updates++
	s.span(p, "Update", hs, vs)
	return out, err
}

func (s *tracedStore) UpdateStatus(p *sim.Proc, r store.Resource) (store.Resource, error) {
	hs, vs := s.t.now(), int64(p.Now())
	out, err := s.inner.UpdateStatus(p, r)
	s.s.statusUpdates++
	s.span(p, "UpdateStatus", hs, vs)
	return out, err
}

func (s *tracedStore) UpdateStatusAsync(p *sim.Proc, r store.Resource) error {
	hs, vs := s.t.now(), int64(p.Now())
	err := s.inner.UpdateStatusAsync(p, r)
	s.s.statusUpdates++
	s.span(p, "UpdateStatusAsync", hs, vs)
	return err
}

func (s *tracedStore) Delete(p *sim.Proc, kind store.Kind, name string, rv uint64) error {
	hs, vs := s.t.now(), int64(p.Now())
	err := s.inner.Delete(p, kind, name, rv)
	s.s.deletes++
	s.span(p, "Delete", hs, vs)
	return err
}

func (s *tracedStore) Watch(p *sim.Proc, kind store.Kind, fromRV uint64) (*store.Watch, error) {
	hs, vs := s.t.now(), int64(p.Now())
	w, err := s.inner.Watch(p, kind, fromRV)
	s.s.watches++
	s.span(p, "Watch", hs, vs)
	return w, err
}

// --- per-invocation spans and the trace file ---

// invocationSpans rebuilds download/queue/exec spans from an invocation's
// timestamps. They exist on the virtual clock only.
func (t *tracer) invocationSpans(invs []*faas.Invocation) {
	for _, inv := range invs {
		id := int32(inv.Seq)
		add := func(name string, from, to time.Duration) {
			if to < from {
				return
			}
			t.record(spanRec{name: name, cat: catInv, inv: id, id: t.newID(),
				hostStart: -1, virtStart: int64(from), virtDur: int64(to - from)}, 0, 0)
		}
		add("download", inv.SubmittedAt, inv.DownloadDone)
		add("queue", inv.DownloadDone, inv.Granted)
		add("exec", inv.Granted, inv.Done)
	}
}

// writeChrome writes the kept spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto). A viewer has one time axis per process, so
// each span appears twice: under pid 1 on the host clock and under pid 2 on
// the virtual clock; tid is the invocation. args carries the other clock
// and the parent span.
func (t *tracer) writeChrome(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","otherData":{"workload":%q,"spans_total":%d,"spans_kept":%d},"traceEvents":[`+"\n", workload, t.nspans, len(t.spans))
	fmt.Fprintf(w, `{"name":"process_name","ph":"M","pid":1,"args":{"name":"host clock"}},`+"\n")
	fmt.Fprintf(w, `{"name":"process_name","ph":"M","pid":2,"args":{"name":"virtual clock"}}`)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, s := range t.spans {
		args := fmt.Sprintf(`{"id":%d,"parent":%d,"host_start_ns":%d,"host_dur_ns":%d,"virt_start_ns":%d,"virt_dur_ns":%d}`,
			s.id, s.parent, s.hostStart, s.hostDur, s.virtStart, s.virtDur)
		if s.hostStart >= 0 {
			fmt.Fprintf(w, ",\n"+`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":%s}`,
				s.name, s.cat, s.inv, us(s.hostStart), us(s.hostDur), args)
		}
		fmt.Fprintf(w, ",\n"+`{"name":%q,"cat":%q,"ph":"X","pid":2,"tid":%d,"ts":%.3f,"dur":%.3f,"args":%s}`,
			s.name, s.cat, s.inv, us(s.virtStart), us(s.virtDur), args)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
