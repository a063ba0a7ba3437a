package guest

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dgsf/internal/apiserver"
	"dgsf/internal/cuda"
	"dgsf/internal/gpu"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/remoting/wire/wiretest"
	"dgsf/internal/sim"
)

// The guest transcript golden. One scripted application drives every gen.API
// method through a guest library at each optimization tier, plain and
// recoverable, over a recording loopback. Everything the library does that
// anyone else can observe goes into one ordered transcript — every message it
// puts on a connection (lane, deadline in force, reqData, payload bytes),
// every value it hands back to the application, the virtual clock after each
// call, the final Stats — and the transcript's FNV-1a hash is compared with a
// constant captured at 5137046, before the one-call-path rewrite, and
// re-captured at d60561e when the backend became an unpooled API server (only
// handle values, device answers and the frames carrying them moved). Do not
// re-capture the constants to make a refactor pass: a moved hash means a
// frame, a result, an instant or a counter moved.
//
// The recoverable runs suffer three connection faults (detected, depending on
// the tier, by a synchronous call, a one-way submission, a fence or a batch
// flush), one refused redial and one replay that dies of a fabric fault, so
// journal replay order, the unfenced-window resend, the batch retry, handle
// re-mapping and the jittered backoff are all in the transcript. The loopback
// offers no vectored lane: bulk transfers are TestRecoverableDeadlineKeepsBulkLane's.

var transcriptGolden = map[string]uint64{
	"none":      0xc29f3a11b65f3ee5,
	"none+rec":  0xa1ab05059e197ef2,
	"local":     0x98173192b81daec2,
	"local+rec": 0xa35f3c3d155ad898,
	"all":       0x527e057e35e9271c,
	"all+rec":   0xdda18a4d12916095,
	"async":     0x36327bbd42fc2659,
	"async+rec": 0xdff1c4cf419e118c,
}

type transcript struct {
	text strings.Builder
}

func (t *transcript) note(format string, args ...any) {
	fmt.Fprintf(&t.text, format+"\n", args...)
}

func (t *transcript) sum() uint64 {
	h := fnv.New64a()
	h.Write([]byte(t.text.String()))
	return h.Sum64()
}

// scriptBackend is an unpooled API server whose data-plane calls succeed, so
// the recoverable library's attach-or-Malloc replay has both outcomes to take.
// gen numbers the backend: 0 is the session's first, each redial mints the
// next.
type scriptBackend struct {
	*apiserver.Server
	gen     int
	exports map[uint64]int64
}

// Hello opens the session, then skews every later backend's handle spaces,
// so a recovered session that forgot to translate a handle shows in the
// payload bytes.
func (b *scriptBackend) Hello(p *sim.Proc, fnID string, memLimit int64) error {
	if err := b.Server.Hello(p, fnID, memLimit); err != nil {
		return err
	}
	for i := 0; i < b.gen; i++ {
		_, _ = b.Malloc(p, 12288)
		_, _ = b.StreamCreate(p)
		_, _ = b.EventCreate(p)
		_, _ = b.DnnCreate(p)
		_, _ = b.MallocHost(p, 64)
	}
	return nil
}

func (b *scriptBackend) ModelAttach(p *sim.Proc) (cuda.DevPtr, int64, int, error) {
	ptr, err := b.Malloc(p, 64<<10)
	return ptr, 64 << 10, 1, err
}

// ModelBroadcast hits on the first backend only: a replay misses and degrades.
func (b *scriptBackend) ModelBroadcast(p *sim.Proc) (cuda.DevPtr, int64, int, error) {
	if b.gen > 0 {
		return 0, 0, 0, nil
	}
	ptr, err := b.Malloc(p, 32<<10)
	return ptr, 32 << 10, 1, err
}

func (b *scriptBackend) MemExport(p *sim.Proc, ptr cuda.DevPtr, tag string) (uint64, int64, error) {
	a, err := b.PointerGetAttributes(p, ptr)
	if err != nil {
		return 0, 0, err
	}
	id := uint64(0xE0000 + len(b.exports))
	b.exports[id] = a.Size
	return id, a.Size, nil
}

// MemImport knows only the exports of its own backend: a replay fails
// semantically and degrades to Malloc.
func (b *scriptBackend) MemImport(p *sim.Proc, export uint64) (cuda.DevPtr, int64, error) {
	size, ok := b.exports[export]
	if !ok {
		return 0, 0, cuda.ErrInvalidValue
	}
	ptr, err := b.Malloc(p, size)
	return ptr, size, err
}

// PeerCopy dies of a fabric fault on the second backend: the replay that runs
// into it is abandoned and recovery moves on to another redial.
func (b *scriptBackend) PeerCopy(p *sim.Proc, export uint64) (cuda.DevPtr, int64, error) {
	if b.gen == 1 {
		return 0, 0, remoting.ErrFabricFault
	}
	ptr, err := b.Malloc(p, 8192)
	return ptr, 8192, err
}

// recRig is the recording loopback's shared state: every connection of one
// run writes into the same transcript.
type recRig struct {
	e       *sim.Engine
	tr      *transcript
	conns   []*recConn
	refused bool
}

// recConn is one loopback connection. It offers the synchronous lane with a
// deadline (per call, or set for the connection) and the one-way lane, and
// dispatches into its own backend: a session recovered onto the next
// connection finds none of its state and different real handles.
type recConn struct {
	r        *recRig
	gen      int
	b        gen.API
	deadline time.Duration
	broken   bool
	latched  int32
}

func (r *recRig) dial(p *sim.Proc) *recConn {
	cfg := gpu.V100Config(0)
	cfg.CopyLat, cfg.KernelLat = 0, 0
	rt := cuda.NewRuntime(r.e, []*gpu.Device{gpu.New(r.e, cfg)}, cuda.Costs{})
	c := &recConn{r: r, gen: len(r.conns)}
	c.b = &scriptBackend{Server: apiserver.NewServer(r.e, rt, apiserver.Config{}), gen: c.gen, exports: map[uint64]int64{}}
	r.conns = append(r.conns, c)
	r.tr.note("dial gen=%d @%d", c.gen, p.Now())
	return c
}

// redial refuses the first attempt of the run, so one recovery episode takes
// the backoff branch and draws its jitter.
func (r *recRig) redial(p *sim.Proc) (remoting.Caller, error) {
	if !r.refused {
		r.refused = true
		r.tr.note("redial refused @%d", p.Now())
		return nil, remoting.ErrConnClosed
	}
	return r.dial(p), nil
}

// fault severs the newest connection: its next message fails.
func (r *recRig) fault(p *sim.Proc) {
	r.tr.note("fault gen=%d @%d", len(r.conns)-1, p.Now())
	r.conns[len(r.conns)-1].broken = true
}

func (c *recConn) SetCallDeadline(d time.Duration) { c.deadline = d }

func (c *recConn) Roundtrip(p *sim.Proc, req []byte, reqData int64) ([]byte, error) {
	return c.sync(p, req, reqData, c.deadline)
}

func (c *recConn) RoundtripTimeout(p *sim.Proc, req []byte, reqData int64, d time.Duration) ([]byte, error) {
	return c.sync(p, req, reqData, d)
}

func (c *recConn) sync(p *sim.Proc, req []byte, reqData int64, d time.Duration) ([]byte, error) {
	c.r.tr.note("msg gen=%d lane=sync deadline=%d data=%d broken=%v %x", c.gen, d, reqData, c.broken, req)
	if c.broken {
		return nil, remoting.ErrConnClosed
	}
	p.Sleep(60 * time.Microsecond)
	defer p.Sleep(40 * time.Microsecond)
	// A wire copies: the backend may keep views of the request, and the guest
	// reuses its encoder.
	req = append([]byte(nil), req...)
	dec := wire.NewDecoder(req)
	switch dec.U16() {
	case remoting.CallFence:
		var e wire.Encoder
		e.I32(c.latched)
		c.latched = 0
		return e.Bytes(), nil
	case remoting.CallBatch:
		n := int(dec.U32())
		var first int32
		for i := 0; i < n && dec.Err() == nil; i++ {
			resp, _ := gen.Dispatch(p, c.b, dec.BytesField())
			if code := wire.NewDecoder(resp).I32(); code != 0 && first == 0 {
				first = code
			}
		}
		var e wire.Encoder
		e.I32(first)
		return e.Bytes(), nil
	}
	resp, _ := gen.Dispatch(p, c.b, req)
	return resp, nil
}

func (c *recConn) Submit(p *sim.Proc, req []byte, reqData int64) error {
	c.r.tr.note("msg gen=%d lane=async data=%d broken=%v %x", c.gen, reqData, c.broken, req)
	inner := append([]byte(nil), req[2:]...) // a wire copies; strip the CallAsync wrapper
	wire.PutBuf(req)                         // Submit takes its request: the library must be done with it
	if c.broken {
		return remoting.ErrConnClosed
	}
	p.Sleep(5 * time.Microsecond)
	resp, _ := gen.Dispatch(p, c.b, inner)
	if code := wire.NewDecoder(resp).I32(); code != 0 && c.latched == 0 {
		c.latched = code
	}
	return nil
}

func (c *recConn) Close() {
	c.r.tr.note("close gen=%d", c.gen)
	c.broken = true
}

// goldenScript is the application. ret records what a call handed back and
// the clock after it; fault severs the connection on recoverable runs and
// does nothing on plain ones.
func goldenScript(p *sim.Proc, lib *Lib, tr *transcript, fault func()) {
	ret := func(call string, vals ...any) {
		tr.note("ret %s %v @%d", call, vals, p.Now())
	}
	one := [3]int{1, 1, 1}
	hb := func(fp uint64, size int64) gpu.HostBuffer { return gpu.HostBuffer{FP: fp, Size: size} }

	ret("Hello", lib.Hello(p, "golden", 1<<30))
	n, err := lib.GetDeviceCount(p)
	ret("GetDeviceCount", n, err)
	prop, err := lib.GetDeviceProperties(p, 0)
	ret("GetDeviceProperties", prop, err)
	ret("SetDevice", lib.SetDevice(p, 0))
	dev, err := lib.GetDevice(p)
	ret("GetDevice", dev, err)
	free, total, err := lib.MemGetInfo(p)
	ret("MemGetInfo", free, total, err)
	v, err := lib.DriverGetVersion(p)
	ret("DriverGetVersion", v, err)
	v, err = lib.RuntimeGetVersion(p)
	ret("RuntimeGetVersion", v, err)
	code, err := lib.GetLastError(p)
	ret("GetLastError", code, err)

	fns, err := lib.RegisterKernels(p, []string{"k0", "k1"})
	ret("RegisterKernels", fns, err)
	for len(fns) < 2 {
		fns = append(fns, 0)
	}
	hp, err := lib.MallocHost(p, 4096)
	ret("MallocHost", hp, err)
	a, err := lib.Malloc(p, 1<<20)
	ret("Malloc a", a, err)
	b, err := lib.Malloc(p, 64<<10)
	ret("Malloc b", b, err)
	c, err := lib.Malloc(p, 4096)
	ret("Malloc c", c, err)
	ret("MemcpyH2D a", lib.MemcpyH2D(p, a, hb(11, 1<<20), 1<<20))
	ret("Memset b", lib.Memset(p, b, 7, 64<<10))
	ret("MemWrite c", lib.MemWrite(p, c, []byte("golden transcript bytes")))
	data, err := lib.MemRead(p, c, 23)
	ret("MemRead c", string(data), err)
	attrs, err := lib.PointerGetAttributes(p, a+4096)
	ret("PointerGetAttributes a+4096", attrs, err)
	attrs, err = lib.PointerGetAttributes(p, 0x1234)
	ret("PointerGetAttributes stray", attrs, err)

	s1, err := lib.StreamCreate(p)
	ret("StreamCreate s1", s1, err)
	s2, err := lib.StreamCreate(p)
	ret("StreamCreate s2", s2, err)
	ev1, err := lib.EventCreate(p)
	ret("EventCreate ev1", ev1, err)
	ev2, err := lib.EventCreate(p)
	ret("EventCreate ev2", ev2, err)
	dnn, err := lib.DnnCreate(p)
	ret("DnnCreate", dnn, err)
	ret("DnnSetStream s1", lib.DnnSetStream(p, dnn, s1))
	blas, err := lib.BlasCreate(p)
	ret("BlasCreate", blas, err)
	ret("BlasSetStream s2", lib.BlasSetStream(p, blas, s2))

	td, err := lib.DnnCreateTensorDescriptor(p)
	ret("DnnCreateTensorDescriptor", td, err)
	ret("DnnSetTensorDescriptor", lib.DnnSetTensorDescriptor(p, td))
	fd, err := lib.DnnCreateFilterDescriptor(p)
	ret("DnnCreateFilterDescriptor", fd, err)
	ret("DnnSetFilterDescriptor", lib.DnnSetFilterDescriptor(p, fd))
	cd, err := lib.DnnCreateConvolutionDescriptor(p)
	ret("DnnCreateConvolutionDescriptor", cd, err)
	ret("DnnSetConvolutionDescriptor", lib.DnnSetConvolutionDescriptor(p, cd))
	ad, err := lib.DnnCreateActivationDescriptor(p)
	ret("DnnCreateActivationDescriptor", ad, err)
	ret("DnnSetActivationDescriptor", lib.DnnSetActivationDescriptor(p, ad))
	pd, err := lib.DnnCreatePoolingDescriptor(p)
	ret("DnnCreatePoolingDescriptor", pd, err)
	ret("DnnSetPoolingDescriptor", lib.DnnSetPoolingDescriptor(p, pd))
	ret("DnnSetTensorDescriptor stale", lib.DnnSetTensorDescriptor(p, 0xDEAD))
	ws, err := lib.DnnGetConvolutionWorkspaceSize(p, cd)
	ret("DnnGetConvolutionWorkspaceSize", ws, err)

	m, msz, tier, err := lib.ModelAttach(p)
	ret("ModelAttach", m, msz, tier, err)
	bm, bsz, src, err := lib.ModelBroadcast(p)
	ret("ModelBroadcast", bm, bsz, src, err)
	exp, esz, err := lib.MemExport(p, c, "tensor")
	ret("MemExport c", exp, esz, err)
	imp, isz, err := lib.MemImport(p, exp)
	ret("MemImport", imp, isz, err)
	pc, psz, err := lib.PeerCopy(p, exp)
	ret("PeerCopy", pc, psz, err)
	ret("MemcpyH2D m", lib.MemcpyH2D(p, m, hb(12, 64<<10), 64<<10))
	ret("MemcpyH2D imp", lib.MemcpyH2D(p, imp, hb(13, 4096), 4096))

	ret("EventRecord ev1", lib.EventRecord(p, ev1, s1))
	// Guest compute longer than FenceLag: the next submission fences first.
	p.Sleep(2 * time.Millisecond)
	ret("PushCallConfiguration", lib.PushCallConfiguration(p, one, [3]int{128, 1, 1}, s1))
	ret("PopCallConfiguration", lib.PopCallConfiguration(p))
	launch := func(fn cuda.FnPtr, s cuda.StreamHandle, mutates ...cuda.DevPtr) error {
		return lib.LaunchKernel(p, cuda.LaunchParams{Fn: fn, Grid: one, Block: [3]int{256, 1, 1},
			Stream: s, Duration: 200 * time.Microsecond, Mutates: mutates})
	}
	ret("LaunchKernel k0", launch(fns[0], s1, a, b))
	ret("DnnForward", lib.DnnForward(p, dnn, "conv", time.Millisecond, []cuda.DevPtr{a, b, m}, []uint64{uint64(td), uint64(fd), uint64(cd)}))
	ret("BlasGemm", lib.BlasGemm(p, blas, time.Millisecond, []cuda.DevPtr{a, b + 256}))
	ret("EventRecord ev2", lib.EventRecord(p, ev2, s1))
	ret("LaunchKernel k1", launch(fns[1], s2, b+4096))
	ret("Memset a", lib.Memset(p, a+8192, 1, 4096))

	// Fault 1: a launch, a memset and an event record are unflushed or
	// unfenced. The next call is deferrable.
	fault()
	ret("LaunchKernel k0 after fault 1", launch(fns[0], s1, a))
	ret("StreamSynchronize s1", lib.StreamSynchronize(p, s1))
	ret("EventSynchronize ev2", lib.EventSynchronize(p, ev2))
	el, err := lib.EventElapsed(p, ev1, ev2)
	ret("EventElapsed", el, err)
	out, err := lib.MemcpyD2H(p, a, 1<<20)
	ret("MemcpyD2H a", out, err)
	ret("MemcpyD2D", lib.MemcpyD2D(p, b, a, 64<<10))
	ret("MemcpyH2D a interior", lib.MemcpyH2D(p, a+4096, hb(14, 4096), 4096))
	ret("MemcpyH2D a again", lib.MemcpyH2D(p, a, hb(15, 1<<20), 1<<20))
	ret("MemWrite b", lib.MemWrite(p, b, []byte{1, 2, 3, 4}))
	ret("DnnSetStream s2", lib.DnnSetStream(p, dnn, s2))
	s3, err := lib.StreamCreate(p)
	ret("StreamCreate s3", s3, err)
	ret("StreamDestroy s3", lib.StreamDestroy(p, s3))
	ret("LaunchKernel k1 again", launch(fns[1], s2, a, b))
	ret("Memset b again", lib.Memset(p, b, 9, 1024))

	// Fault 2: the next call is synchronous, so the flush or the fence ahead
	// of it is what runs into the dead connection.
	fault()
	ret("DeviceSynchronize", lib.DeviceSynchronize(p))
	code, err = lib.GetLastError(p)
	ret("GetLastError", code, err)
	attrs, err = lib.PointerGetAttributes(p, pc)
	ret("PointerGetAttributes pc", attrs, err)
	data, err = lib.MemReadInto(p, b, 4, make([]byte, 0, 8))
	ret("MemReadInto b", data, err)
	ret("Memset stray", lib.Memset(p, 0xDEAD0000, 0, 16))

	// A burst past the in-flight window (a library with FenceLag fences on
	// staleness long before).
	for i := 0; i < 520; i++ {
		if err := lib.Memset(p, a, byte(i), 64); err != nil {
			ret("Memset burst", i, err)
		}
	}
	ret("Memset burst")

	ret("Free b", lib.Free(p, b))
	ret("DnnDestroy", lib.DnnDestroy(p, dnn))
	ret("BlasDestroy", lib.BlasDestroy(p, blas))
	ret("EventDestroy ev1", lib.EventDestroy(p, ev1))
	ret("StreamDestroy s1", lib.StreamDestroy(p, s1))
	ret("DnnDestroyTensorDescriptor", lib.DnnDestroyTensorDescriptor(p, td))
	ret("DnnDestroyFilterDescriptor", lib.DnnDestroyFilterDescriptor(p, fd))
	ret("FreeHost", lib.FreeHost(p, hp))
	ret("FreeHost again", lib.FreeHost(p, hp))
	ret("ModelPersist m", lib.ModelPersist(p, m))
	ret("Free imp", lib.Free(p, imp))
	ret("EventDestroy ev2", lib.EventDestroy(p, ev2))
	ret("StreamDestroy s2", lib.StreamDestroy(p, s2))

	// Fault 3: releases are pending whose journal entries must outlive them
	// until they are confirmed.
	fault()
	lib.FlushBatch(p)
	ret("FlushBatch")
	free, total, err = lib.MemGetInfo(p)
	ret("MemGetInfo", free, total, err)
	ret("DnnDestroyConvolutionDescriptor", lib.DnnDestroyConvolutionDescriptor(p, cd))
	ret("DnnDestroyActivationDescriptor", lib.DnnDestroyActivationDescriptor(p, ad))
	ret("DnnDestroyPoolingDescriptor", lib.DnnDestroyPoolingDescriptor(p, pd))
	ret("Free a", lib.Free(p, a))
	ret("Free pc", lib.Free(p, pc))
	ret("Free bm", lib.Free(p, bm))
	code, err = lib.GetLastError(p)
	ret("GetLastError", code, err)
	lib.FlushBatch(p)
	ret("Bye", lib.Bye(p))
	tr.note("stats %+v", lib.Stats())
}

// TestGuestTranscriptGoldenUnderPoolChecks: the same transcripts when every
// payload the transport has consumed is poisoned at once.
func TestGuestTranscriptGoldenUnderPoolChecks(t *testing.T) {
	wiretest.CheckPool(t)
	TestGuestTranscriptGolden(t)
}

func TestGuestTranscriptGolden(t *testing.T) {
	tiers := []struct {
		name string
		opt  Opt
	}{
		{"none", OptNone},
		{"local", OptLocalDescriptors},
		{"all", OptAll},
		{"async", OptAll | OptAsync},
	}
	for _, tier := range tiers {
		for _, recoverable := range []bool{false, true} {
			name := tier.name
			if recoverable {
				name += "+rec"
			}
			t.Run(name, func(t *testing.T) {
				tr := &transcript{}
				e := sim.NewEngine(1)
				e.Run("app", func(p *sim.Proc) {
					r := &recRig{e: e, tr: tr}
					if !recoverable {
						goldenScript(p, New(r.dial(p), tier.opt), tr, func() {})
						return
					}
					lib := NewRecoverable(r.dial(p), tier.opt, RecoveryConfig{
						Redial:       r.redial,
						MaxAttempts:  4,
						BackoffBase:  time.Millisecond,
						BackoffCap:   4 * time.Millisecond,
						CallDeadline: 250 * time.Millisecond,
						FenceLag:     time.Millisecond,
					})
					goldenScript(p, lib, tr, func() { r.fault(p) })
				})
				if got, want := tr.sum(), transcriptGolden[name]; got != want {
					// Leave the text behind: the same file written at the
					// reference commit (zero its constant there) is what to
					// diff against.
					path := filepath.Join(os.TempDir(), "guest-transcript-"+name+".txt")
					if err := os.WriteFile(path, []byte(tr.text.String()), 0o644); err != nil {
						path = err.Error()
					}
					t.Errorf("transcript hash %#x, want %#x (text: %s)", got, want, path)
				}
			})
		}
	}
}
