package faas

import (
	"time"

	"dgsf/internal/gpuserver"
	"dgsf/internal/guest"
	"dgsf/internal/modelcache"
	"dgsf/internal/objstore"
	"dgsf/internal/remoting"
	"dgsf/internal/sim"
)

// executor is what running an invocation takes once somebody has decided
// where: the download, the guest attachment around the function body, and
// the records. Backend and FleetBackend embed it and differ only in how a
// GPU server is chosen and what happens when an attempt fails.
type executor struct {
	e   *sim.Engine
	env Env

	// DialHook, when set, wraps every guest transport at dial time. The
	// fault injection framework uses it to interpose connection faults.
	DialHook func(p *sim.Proc, conn remoting.AsyncCaller) remoting.AsyncCaller

	// DialServerHook is DialHook with the target machine attached: faults
	// that depend on where a connection lands (asymmetric network
	// partitions between machine groups) interpose here. Runs after
	// DialHook when both are set.
	DialServerHook func(p *sim.Proc, gs *gpuserver.GPUServer, conn remoting.AsyncCaller) remoting.AsyncCaller

	nextSeq     int
	invocations []*Invocation
	inflight    *sim.WaitGroup
	history     map[string]time.Duration // learned exec time per function (EWMA)
	objects     *objstore.Store          // model objects, for cache-aware downloads
	modelNames  map[string]string        // function name → its model object's name
}

func newExecutor(e *sim.Engine, env Env) executor {
	return executor{
		e:          e,
		env:        env,
		inflight:   sim.NewWaitGroup(e),
		history:    make(map[string]time.Duration),
		objects:    objstore.New(),
		modelNames: make(map[string]string),
	}
}

// Env returns the backend's environment profile.
func (x *executor) Env() Env { return x.env }

// Drain blocks until every submitted invocation has finished.
func (x *executor) Drain(p *sim.Proc) { x.inflight.Wait(p) }

// Invocations returns all records, in submission order.
func (x *executor) Invocations() []*Invocation { return x.invocations }

func (x *executor) newInvocation(p *sim.Proc, fn *Function) *Invocation {
	x.nextSeq++
	inv := &Invocation{Fn: fn, Seq: x.nextSeq, SubmittedAt: p.Now(), Server: -1}
	x.invocations = append(x.invocations, inv)
	return inv
}

// recordExec folds an observed execution time into the per-function EWMA
// that seeds SJF hints.
func (x *executor) recordExec(name string, d time.Duration) {
	if prev, ok := x.history[name]; ok {
		x.history[name] = (prev*3 + d) / 4
	} else {
		x.history[name] = d
	}
}

// modelObject registers (idempotently — Put derives deterministic content
// from name and size) the function's model blob and returns its name.
func (x *executor) modelObject(fn *Function) string {
	name, ok := x.modelNames[fn.Name]
	if !ok {
		name = fn.Name + "/model"
		x.modelNames[fn.Name] = name
	}
	x.objects.Put(name, fn.ModelDLBytes)
	return name
}

// download fetches models and inputs from the object store. With split set
// (and a model portion to split off) the model blob is fetched on its own,
// through host — the chosen GPU server's host cache, which may already stage
// it; nil means that server has none — and the rest follows.
func (x *executor) download(p *sim.Proc, inv *Invocation, split bool, host *modelcache.LRU) {
	fn := inv.Fn
	if split && fn.ModelDLBytes > 0 && fn.ModelDLBytes <= fn.DownloadBytes {
		_, hit, err := x.objects.DownloadCached(p, x.env.Download, x.modelObject(fn), host)
		if err != nil {
			panic(err) // the object was registered just above
		}
		inv.ModelCached = hit
		if rest := fn.DownloadBytes - fn.ModelDLBytes; rest > 0 {
			p.Sleep(x.env.Download.TransferTime(p, rest))
		}
	} else if fn.DownloadBytes > 0 {
		p.Sleep(x.env.Download.TransferTime(p, fn.DownloadBytes))
	}
	inv.DownloadDone = p.Now()
}

// hostCache returns a GPU server's host-staged model cache, nil without one.
func hostCache(gs *gpuserver.GPUServer) *modelcache.LRU {
	if c := gs.Cache(); c != nil {
		return c.Host()
	}
	return nil
}

// relocateFunc moves a recovering guest: given the machine and lease it
// lost, it returns the machine and lease to redial. Which machine, and what
// becomes of the old lease, is the backend's policy.
type relocateFunc func(p *sim.Proc, gs *gpuserver.GPUServer, lease *gpuserver.Lease) (*gpuserver.GPUServer, *gpuserver.Lease, error)

// runGuest attaches a guest library to the leased API server, runs the
// function body between Hello and Bye, detaches — connection closed, lease
// released — and folds the library's recovery counters into inv. With rec
// set the guest is recoverable and redials wherever relocate sends it.
func (x *executor) runGuest(p *sim.Proc, inv *Invocation, gs *gpuserver.GPUServer, lease *gpuserver.Lease, rec *guest.RecoveryConfig, relocate relocateFunc) error {
	fn := inv.Fn
	conn := x.dial(p, gs, lease)
	var lib *guest.Lib
	if rec != nil {
		rc := *rec
		rc.Redial = func(p *sim.Proc) (remoting.Caller, error) {
			ngs, nl, err := relocate(p, gs, lease)
			if err != nil {
				return nil, err
			}
			gs, lease = ngs, nl
			conn = x.dial(p, gs, lease)
			return conn, nil
		}
		lib = guest.NewRecoverable(conn, x.env.GuestOpt, rc)
	} else {
		lib = guest.New(conn, x.env.GuestOpt)
	}
	err := lib.Hello(p, fn.Name, fn.GPUMem)
	if err == nil {
		err = fn.Run(p, lib)
		if byeErr := lib.Bye(p); err == nil {
			err = byeErr
		}
	}
	conn.Close()
	_ = gs.Release(lease) // best effort; a revoked lease errors, which is fine
	st := lib.Stats()
	inv.Recoveries += st.Recoveries
	inv.Redials += st.Redials
	inv.Replayed += st.Replayed
	inv.Journaled += st.Journaled
	return err
}

// dial connects a guest to a leased API server, applying the dial hooks.
func (x *executor) dial(p *sim.Proc, gs *gpuserver.GPUServer, lease *gpuserver.Lease) remoting.AsyncCaller {
	conn := remoting.Dial(x.e, lease.Listener(), x.env.Net)
	if x.DialHook != nil {
		conn = x.DialHook(p, conn)
	}
	if x.DialServerHook != nil {
		conn = x.DialServerHook(p, gs, conn)
	}
	return conn
}
