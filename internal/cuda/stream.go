package cuda

import (
	"slices"
	"time"

	"dgsf/internal/gpu"
	"dgsf/internal/sim"
)

// Stream is a CUDA stream: an in-order queue of device operations executed
// asynchronously with respect to the issuing CPU thread. Each stream is
// serviced by a daemon process that executes ops on the context's device.
type Stream struct {
	ctx     *Context
	handle  StreamHandle
	q       *sim.Queue[streamOp]
	pending int
	idle    *sim.Cond
	closed  bool
}

// streamOp is one queued device operation, as data: a kernel (ev nil) or an
// event record. A launch is enqueued by value and the worker runs it, so a
// kernel in flight costs a queue slot and no allocation.
type streamOp struct {
	// A kernel: dev executes it for its nominal duration, then every
	// allocation it mutates is stamped with its name's hash. The launch
	// hashed the name and resolved the pointers, so the op holds the
	// allocations — inline up to inlineMutates, the usual one or two, beyond
	// that in more.
	dev    *gpu.Device
	dur    time.Duration
	kernel uint64 // gpu.KernelHash of the kernel's name
	n      int
	allocs [inlineMutates]*gpu.PhysAlloc
	more   []*gpu.PhysAlloc

	// An event record: ev completes when the stream reaches it.
	ev *Event
}

const inlineMutates = 4

func (op *streamOp) addAlloc(a *gpu.PhysAlloc) {
	if op.n < inlineMutates {
		op.allocs[op.n] = a
	} else {
		op.more = append(op.more, a)
	}
	op.n++
}

func (op *streamOp) run(p *sim.Proc) {
	if ev := op.ev; ev != nil {
		ev.at = p.Now()
		ev.done = true
		ev.cond.Broadcast()
		return
	}
	op.dev.ExecKernel(p, op.dur)
	for _, a := range op.allocs[:min(op.n, inlineMutates)] {
		gpu.MutateKernel(a, op.kernel)
	}
	for _, a := range op.more {
		gpu.MutateKernel(a, op.kernel)
	}
}

func newStream(p *sim.Proc, ctx *Context, h StreamHandle) *Stream {
	e := ctx.rt.e
	s := &Stream{
		ctx:    ctx,
		handle: h,
		q:      sim.NewQueue[streamOp](e),
		idle:   sim.NewCond(e),
	}
	p.SpawnDaemon("cuda-stream", s.worker)
	return s
}

func (s *Stream) worker(p *sim.Proc) {
	for {
		op, ok := s.q.Recv(p)
		if !ok {
			return
		}
		op.run(p)
		s.pending--
		if s.pending == 0 {
			s.idle.Broadcast()
		}
	}
}

func (s *Stream) enqueue(op streamOp) {
	s.pending++
	s.q.Send(op)
}

// awaitIdle blocks until every op enqueued so far has executed.
func (s *Stream) awaitIdle(p *sim.Proc) {
	for s.pending > 0 {
		s.idle.Wait(p)
	}
}

func (s *Stream) close() {
	if !s.closed {
		s.closed = true
		s.q.Close()
	}
}

// --- stream API ---

// StreamCreate mirrors cudaStreamCreate.
func (c *Context) StreamCreate(p *sim.Proc) (StreamHandle, error) {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return 0, err
	}
	h := StreamHandle(c.handle())
	c.streams[h] = newStream(p, c, h)
	return h, nil
}

// StreamDestroy mirrors cudaStreamDestroy; pending work completes first.
func (c *Context) StreamDestroy(p *sim.Proc, h StreamHandle) error {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return err
	}
	s, ok := c.streams[h]
	if !ok {
		return ErrInvalidResourceHandle
	}
	s.awaitIdle(p)
	s.close()
	delete(c.streams, h)
	return nil
}

// StreamSynchronize mirrors cudaStreamSynchronize; handle 0 names the
// default stream.
func (c *Context) StreamSynchronize(p *sim.Proc, h StreamHandle) error {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return err
	}
	s, err := c.stream(h)
	if err != nil {
		return err
	}
	s.awaitIdle(p)
	return nil
}

// DeviceSynchronize mirrors cudaDeviceSynchronize.
func (c *Context) DeviceSynchronize(p *sim.Proc) error {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return err
	}
	c.defStream.awaitIdle(p)
	// Sorted so the per-stream waits replay in the same order every run.
	hs := make([]StreamHandle, 0, len(c.streams))
	for h := range c.streams {
		hs = append(hs, h)
	}
	slices.Sort(hs)
	for _, h := range hs {
		c.streams[h].awaitIdle(p)
	}
	return nil
}

func (c *Context) stream(h StreamHandle) (*Stream, error) {
	if h == 0 {
		return c.defStream, nil
	}
	s, ok := c.streams[h]
	if !ok {
		return nil, ErrInvalidResourceHandle
	}
	return s, nil
}

// --- kernel launch ---

// LaunchParams carries the arguments of a kernel launch. Duration is the
// kernel's nominal (uncontended) execution time; Mutates lists the device
// buffers the kernel writes, used for content-integrity tracking.
type LaunchParams struct {
	Fn       FnPtr
	Grid     [3]int
	Block    [3]int
	Stream   StreamHandle
	Duration time.Duration
	Mutates  []DevPtr
}

// LaunchKernel mirrors cudaLaunchKernel: it validates the function pointer
// against this context (pointers from other contexts are invalid — the
// reason migration must translate them), enqueues the kernel on its stream
// and returns without waiting for completion.
func (c *Context) LaunchKernel(p *sim.Proc, lp LaunchParams) error {
	if t := c.rt.costs.LaunchTime; t > 0 {
		p.Sleep(t)
	}
	if err := c.check(); err != nil {
		return err
	}
	name, err := c.FunctionName(lp.Fn)
	if err != nil {
		return err
	}
	s, err := c.stream(lp.Stream)
	if err != nil {
		return err
	}
	op := streamOp{dev: c.dev, dur: lp.Duration, kernel: gpu.KernelHash(name)}
	for _, ptr := range lp.Mutates {
		a, err := c.resolve(ptr)
		if err != nil {
			return err
		}
		op.addAlloc(a)
	}
	s.enqueue(op)
	return nil
}

// --- events ---

// Event is a CUDA event.
type Event struct {
	handle   EventHandle
	ctx      *Context
	recorded bool // Record was issued
	done     bool // the recording op has executed
	at       time.Duration
	cond     *sim.Cond
}

// EventCreate mirrors cudaEventCreate.
func (c *Context) EventCreate(p *sim.Proc) (EventHandle, error) {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return 0, err
	}
	h := EventHandle(c.handle())
	c.events[h] = &Event{handle: h, ctx: c, cond: sim.NewCond(c.rt.e)}
	return h, nil
}

// EventDestroy mirrors cudaEventDestroy.
func (c *Context) EventDestroy(p *sim.Proc, h EventHandle) error {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return err
	}
	if _, ok := c.events[h]; !ok {
		return ErrInvalidResourceHandle
	}
	delete(c.events, h)
	return nil
}

// EventRecord mirrors cudaEventRecord: the event completes when the stream
// reaches it.
func (c *Context) EventRecord(p *sim.Proc, h EventHandle, stream StreamHandle) error {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return err
	}
	ev, ok := c.events[h]
	if !ok {
		return ErrInvalidResourceHandle
	}
	s, err := c.stream(stream)
	if err != nil {
		return err
	}
	ev.recorded = true
	ev.done = false
	s.enqueue(streamOp{ev: ev})
	return nil
}

// EventSynchronize mirrors cudaEventSynchronize.
func (c *Context) EventSynchronize(p *sim.Proc, h EventHandle) error {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return err
	}
	ev, ok := c.events[h]
	if !ok {
		return ErrInvalidResourceHandle
	}
	if !ev.recorded {
		return ErrInvalidValue
	}
	for !ev.done {
		ev.cond.Wait(p)
	}
	return nil
}

// EventElapsed mirrors cudaEventElapsedTime for two completed events.
func (c *Context) EventElapsed(p *sim.Proc, start, end EventHandle) (time.Duration, error) {
	c.rt.apiCost(p)
	if err := c.check(); err != nil {
		return 0, err
	}
	a, ok := c.events[start]
	b, ok2 := c.events[end]
	if !ok || !ok2 {
		return 0, ErrInvalidResourceHandle
	}
	if !a.done || !b.done {
		return 0, ErrInvalidValue
	}
	return b.at - a.at, nil
}
