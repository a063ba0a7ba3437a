package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"dgsf/internal/experiments"
	"dgsf/internal/faas"
	"dgsf/internal/gpuserver"
	"dgsf/internal/guest"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
	"dgsf/internal/workloads"
)

// paperMix is Table III "AW, sharing-2-best-fit": instances x six workloads
// arriving with exponential gaps (mean 2 s, virtual) at four GPUs with two
// API servers each. It mirrors experiments.RunMix — same engine seed, root
// process name and submission order — so its virtual results are RunMix's.
type paperMix struct {
	seed      int64
	specs     []*workloads.Spec
	instances int
	quick     []*workloads.Spec
}

const quickInstances = 2

const (
	mixGPUs    = 4
	mixMeanGap = 2 * time.Second
)

func newPaperMix(seed int64, quick bool) *paperMix {
	w := &paperMix{seed: seed, specs: workloads.All(), instances: 10, quick: quickSpecs()}
	if quick {
		w.specs, w.instances = w.quick, quickInstances
	}
	return w
}

func mixVariant() experiments.Variant { return experiments.Variants()[1] } // sharing-2-best-fit

func (w *paperMix) setup(*tracer) error {
	out := w.run(w.quick, quickInstances, nil)
	if len(out.errs) > 0 {
		return fmt.Errorf("warm-up: %s", out.errs[0])
	}
	return nil
}

func (w *paperMix) rep(tr *tracer) repOut { return w.run(w.specs, w.instances, tr) }
func (w *paperMix) close()                {}

// harvest wraps a function body so the guest library's counters can be read
// when the body returns: the backend hands Run its *guest.Lib as the
// gen.API. The +1 is the Bye the backend issues afterwards. When tracing,
// the body runs against the API decorator instead.
func harvest(fn *faas.Function, acc *guest.Stats, tr *tracer) *faas.Function {
	body := fn.Run
	out := *fn
	out.Run = func(p *sim.Proc, api gen.API) error {
		run := api
		if tr != nil {
			run = tr.wrapAPI(p, api)
		}
		err := body(p, run)
		if lib, ok := api.(*guest.Lib); ok {
			st := lib.Stats()
			st.Total++
			st.Remoted++
			addGuest(acc, st)
		}
		return err
	}
	return &out
}

func (w *paperMix) run(specs []*workloads.Spec, instances int, tr *tracer) repOut {
	out := newRepOut()
	wire0 := snapshotWire()
	var g guest.Stats
	var backend *faas.Backend
	var gs *gpuserver.GPUServer
	var util float64

	v := mixVariant()
	start := hostNow()
	e := sim.NewEngine(w.seed)
	if tr != nil {
		e.SetTrace(tr.simHook)
	}
	// collect reads the run's results. It runs as the root process's last
	// act: once Engine.Run returns, ready daemons may still be taking their
	// final steps on their own goroutines, so counters read after it are
	// not stable.
	collect := func() {
		if tr != nil {
			tr.freeze()
		}
		invs := backend.Invocations()
		out.calls = int64(g.Total)
		out.invocations = int64(len(invs))
		out.attempted = out.invocations
		out.vals["calls_per_s"] = ratio(float64(out.calls), out.hostS)

		d := newDigest()
		var e2e []float64
		for _, inv := range invs {
			if inv.Err != nil {
				out.fail(fmt.Errorf("invocation %d (%s): %w", inv.Seq, inv.Fn.Name, inv.Err))
			}
			e2e = append(e2e, inv.E2E().Seconds())
			d.add(inv.Seq, inv.SubmittedAt, inv.DownloadDone, inv.Granted, inv.Done)
		}
		out.vals["virt_makespan_s"] = backend.ProviderEndToEnd().Seconds()
		out.vals["virt_e2e_p50_s"] = percentile(e2e, 50)
		out.vals["virt_e2e_p80_s"] = percentile(e2e, 80)

		ls := out.layers
		ls.guestCounts(g)
		for _, srv := range gs.Servers() {
			st := srv.Stats()
			ls.addServer(st)
			d.add(st)
		}
		d.add(g)
		out.digest = d.sum()
		for _, dev := range gs.Devices() {
			ls["gpu.compute_busy_virt_s"] += dev.ComputeBusy().Seconds()
			ls["gpu.copy_busy_virt_s"] += dev.CopyBusy().Seconds()
		}
		ls["gpu.util_pct"] = util / float64(len(gs.Samplers()))
		ls.invocations(invs)
		ls["gpuserver.placements"] = float64(len(gs.Placements()))
		ls["gpuserver.migrations"] = float64(gs.Migrations())
		ls["faas.retries"] = 0
		ls.wire(snapshotWire().Sub(wire0))
		if tr != nil {
			tr.invocationSpans(invs)
			ls.fromTracer(tr, out.calls, out.invocations)
		}
	}
	e.Run("mix", func(p *sim.Proc) {
		gcfg := gpuserver.DefaultConfig()
		gcfg.GPUs = mixGPUs
		gcfg.ServersPerGPU = v.ServersPerGPU
		gcfg.Policy = v.Policy
		gcfg.EnableMigration = v.Migration
		gs = gpuserver.New(e, gcfg)
		gs.Start(p)

		backend = faas.NewBackend(e, gs, faas.OpenFaaSEnv())
		if tr != nil {
			backend.DialHook = tr.dialHook
		}
		var fns []*faas.Function
		for _, spec := range specs {
			f := harvest(spec.Function(), &g, tr)
			for i := 0; i < instances; i++ {
				fns = append(fns, f)
			}
		}
		p.Rand().Shuffle(len(fns), func(i, j int) { fns[i], fns[j] = fns[j], fns[i] })

		from := p.Now()
		backend.SubmitSequence(p, fns, faas.ExponentialArrivals(p, mixMeanGap))
		backend.Drain(p)
		out.hostS = hostNow().Sub(start).Seconds()
		for _, s := range gs.Samplers() {
			util += s.MeanUtil(from, p.Now())
		}
		collect()
	})
	e.Stop()
	return out
}

// traceExtras prices the invocations' calls in isolation — the six
// functions one at a time at the backend's guest tier, as in single_fn —
// and attributes the rest of a paper_mix repetition to what surrounds the
// calls: scheduling, queueing and the engine under many live processes. It
// is a difference of two host times taken a minute apart, so both sides are
// the fastest seen: a neighbour on the machine can only slow a pass down.
func (w *paperMix) traceExtras(ls layerVals, untraced *workloadResult) []check {
	opt := faas.OpenFaaSEnv().GuestOpt
	var passes []float64
	calls := 0
	for pass := 0; pass < 3; pass++ {
		calls = 0
		runtime.GC()
		start := hostNow()
		for _, spec := range w.specs {
			calls += runFunction(w.seed, spec, levelFull, opt, nil).guest.Total
		}
		passes = append(passes, hostNow().Sub(start).Seconds())
	}
	perCall := ratio(slices.Min(passes), float64(calls))
	invs := float64(len(w.specs) * w.instances)
	repS := ratio(invs, slices.Max(untraced.Samples["invocations_per_s"]))
	ls["faas.host_us_per_invocation_outside_calls"] = 1e6 * ratio(repS-ls["guest.calls_total"]*perCall, invs)
	return nil
}
