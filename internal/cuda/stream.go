package cuda

import (
	"slices"
	"time"

	"dgsf/internal/gpu"
	"dgsf/internal/sim"
)

// Stream is a CUDA stream: an in-order queue of device operations executed
// asynchronously with respect to the issuing CPU thread. A step process of
// its own (sim.Proc) executes the ops on the context's device: the loop
// calls it directly, so a kernel costs no coroutine switch.
type Stream struct {
	dev     *gpu.Device              // the context's device, which every op runs on
	ops     sim.Ring[streamOp]       // enqueued, not yet started
	more    sim.Ring[*gpu.PhysAlloc] // each queued kernel's second and later mutated allocations, in op order
	pending int                      // enqueued, not yet finished
	idle    *sim.Cond
	closed  bool

	worker  *sim.Proc
	blocked bool       // worker is in Block, waiting for an op
	cur     streamOp   // the op the worker took last; zero while it waits for one
	kern    gpu.Kernel // cur's kernel as a step machine
	busy    bool       // kern is running
}

// streamOp is one queued device operation, as data: a kernel (ev nil) or an
// event record. A launch is enqueued by value and the worker runs it, so a
// kernel in flight costs a ring slot and no allocation. It is 40 bytes: the
// device is the stream's, and a kernel's mutated allocations past the first
// wait on the stream's more ring.
type streamOp struct {
	// A kernel: the stream's device executes it for its nominal duration,
	// then every allocation it mutates is stamped with its name's hash,
	// which the context computed when the kernel was registered. The launch
	// resolved the pointers: alloc is the first of n, the rest are the next
	// n-1 entries of the stream's more ring.
	dur    time.Duration
	kernel uint64 // gpu.KernelHash of the kernel's name
	alloc  *gpu.PhysAlloc
	n      int32

	// An event record: ev completes when the stream reaches it.
	ev *Event
}

func newStream(p *sim.Proc, e *sim.Engine, dev *gpu.Device) *Stream {
	s := &Stream{dev: dev, idle: sim.NewCond(e)}
	s.worker = p.SpawnStepDaemon("cuda-stream", s.step)
	return s
}

// step runs ops in order until one waits — the kernel's launch latency or
// its share of the compute engine — or none is left: then the worker blocks
// until an enqueue, or exits once the stream is closed.
func (s *Stream) step(p *sim.Proc) bool {
	if s.busy {
		if s.kern.Wake(p) {
			return true
		}
		s.finishKernel()
	}
	for {
		var ok bool
		if s.cur, ok = s.ops.Pop(); !ok {
			if s.closed {
				return false
			}
			s.blocked = true
			p.Block()
			return true
		}
		op := &s.cur
		if ev := op.ev; ev != nil {
			ev.at = p.Now()
			ev.done = true
			ev.cond.Broadcast()
			s.finished()
			continue
		}
		if s.kern.Start(p, s.dev, op.dur) {
			s.busy = true
			return true
		}
		s.finishKernel()
	}
}

// finishKernel stamps the finished kernel into the allocations it writes.
func (s *Stream) finishKernel() {
	op := &s.cur
	if op.n > 0 {
		gpu.MutateKernel(op.alloc, op.kernel)
		for range op.n - 1 {
			a, _ := s.more.Pop()
			gpu.MutateKernel(a, op.kernel)
		}
	}
	s.busy = false
	s.finished()
}

func (s *Stream) finished() {
	s.pending--
	if s.pending == 0 {
		s.idle.Broadcast()
	}
}

// wakeWorker readies the worker if it is blocked waiting for an op.
func (s *Stream) wakeWorker() {
	if s.blocked {
		s.blocked = false
		s.worker.Ready()
	}
}

func (s *Stream) enqueue(op streamOp) {
	if s.closed {
		panic("cuda: op enqueued on a closed stream")
	}
	s.pending++
	s.ops.Push(op)
	s.wakeWorker()
}

// awaitIdle blocks until every op enqueued so far has executed.
func (s *Stream) awaitIdle(p *sim.Proc) {
	for s.pending > 0 {
		s.idle.Wait(p)
	}
}

// close ends the stream once the ops enqueued so far have run.
func (s *Stream) close() {
	if !s.closed {
		s.closed = true
		s.wakeWorker()
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
	c.streams[h] = newStream(p, c.rt.e, c.dev)
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
	kernel, ok := c.fnByPtr[lp.Fn]
	if !ok {
		return ErrInvalidFunction
	}
	s, err := c.stream(lp.Stream)
	if err != nil {
		return err
	}
	op := streamOp{dur: lp.Duration, kernel: kernel, n: int32(len(lp.Mutates))}
	// Every pointer resolves before anything is queued, so a launch that
	// fails leaves the stream as it was; the second pass cannot fail.
	for i, ptr := range lp.Mutates {
		a, err := c.resolve(ptr)
		if err != nil {
			return err
		}
		if i == 0 {
			op.alloc = a
		}
	}
	if len(lp.Mutates) > 1 {
		for _, ptr := range lp.Mutates[1:] {
			a, _ := c.resolve(ptr)
			s.more.Push(a)
		}
	}
	s.enqueue(op)
	return nil
}

// --- events ---

// Event is a CUDA event.
type Event struct {
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
	c.events[h] = &Event{cond: sim.NewCond(c.rt.e)}
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
