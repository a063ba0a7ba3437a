package main

import (
	"fmt"

	"dgsf/internal/guest"
	"dgsf/internal/workloads"
)

// singleFn is the closed-loop, one-function-at-a-time workload: each
// repetition runs the six paper workloads back to back on fresh engines,
// once at the pipelined guest tier and once at the sync tier.
type singleFn struct {
	seed         int64
	isQuick      bool
	specs, quick []*workloads.Spec
}

func newSingleFn(seed int64, quick bool) *singleFn {
	w := &singleFn{seed: seed, isQuick: quick, specs: workloads.All(), quick: quickSpecs()}
	if quick {
		w.specs = w.quick
	}
	return w
}

func (w *singleFn) setup(*tracer) error {
	out := w.run(w.quick, nil)
	if len(out.errs) > 0 {
		return fmt.Errorf("warm-up: %s", out.errs[0])
	}
	return nil
}

func (w *singleFn) rep(tr *tracer) repOut { return w.run(w.specs, tr) }
func (w *singleFn) close()                {}

// tierPass is one pass over the specs at one guest tier.
type tierPass struct {
	hostS float64
	runs  []fnRun
	g     guest.Stats
}

// pass runs the specs at one tier.
func (w *singleFn) pass(specs []*workloads.Spec, opt guest.Opt, tr *tracer, out *repOut) tierPass {
	var tp tierPass
	start := hostNow()
	for _, spec := range specs {
		run := runFunction(w.seed, spec, levelFull, opt, tr)
		if run.err != nil {
			out.fail(run.err)
		}
		tp.runs = append(tp.runs, run)
		addGuest(&tp.g, run.guest)
	}
	tp.hostS = hostNow().Sub(start).Seconds()
	return tp
}

func (w *singleFn) run(specs []*workloads.Spec, tr *tracer) repOut {
	out := newRepOut()
	wire0 := snapshotWire()
	fast := w.pass(specs, tierPipelined, tr, &out)
	slow := w.pass(specs, tierSync, tr, &out)
	out.hostS = fast.hostS + slow.hostS

	out.calls = int64(fast.g.Total + slow.g.Total)
	out.invocations = int64(2 * len(specs))
	out.attempted = out.calls
	out.vals["calls_per_s"] = ratio(float64(fast.g.Total), fast.hostS)
	out.vals["sync_calls_per_s"] = ratio(float64(slow.g.Total), slow.hostS)

	d := newDigest()
	var makespan, span float64
	for _, tp := range []tierPass{fast, slow} {
		for i, run := range tp.runs {
			d.add(specs[i].Name, run.total, run.download, run.endAt, run.guest, run.srv)
		}
	}
	for _, run := range fast.runs {
		makespan += run.total.Seconds()
	}
	out.vals["virt_makespan_s"] = makespan
	out.digest = d.sum()

	// Counts that describe the layers; identical traced or not.
	ls := out.layers
	all := guest.Stats{}
	addGuest(&all, fast.g)
	addGuest(&all, slow.g)
	ls.guestCounts(all)
	for _, tp := range []tierPass{fast, slow} {
		for _, run := range tp.runs {
			ls.addServer(run.srv)
			ls["gpu.compute_busy_virt_s"] += run.computeBusy.Seconds()
			ls["gpu.copy_busy_virt_s"] += run.copies.Seconds()
			span += run.endAt.Seconds()
		}
	}
	ls["gpu.util_pct"] = 100 * ratio(ls["gpu.compute_busy_virt_s"], span)
	ls.wire(snapshotWire().Sub(wire0))
	if tr != nil {
		ls.fromTracer(tr, out.calls, out.invocations)
	}
	return out
}

// traceExtras adds what only the traced run of single_fn measures: the
// stack peel and the sim engine probes.
func (w *singleFn) traceExtras(ls layerVals, untraced *workloadResult) []check {
	passes, n := 5, 200_000
	if w.isQuick {
		passes, n = 1, 5_000
	}
	pr := peel(w.seed, w.specs, passes)
	ls["cuda.host_ns_per_call"] = pr.perCall(levelNative)
	ls["apiserver.host_ns_per_call"] = pr.perCall(levelAPIServer)
	ls["remoting.codec_host_ns_per_call"] = pr.perCall(levelCodec)
	ls["remoting.sim_host_ns_per_roundtrip"] = ratio(pr.levelNs[levelFull]-pr.levelNs[levelGuest], float64(pr.roundtrips))

	ls["sim.host_ns_per_switch"] = probeSwitch(n)
	ls["sim.host_ns_per_sleep"] = probeSleep(n)
	ls["sim.host_ns_per_spawn"] = probeSpawn(n / 4)
	ls["sim.host_ns_per_switch_64procs"] = probeSwitchMany(64, n/64)

	// The peel must add up: no level cheaper than the one under it, and the
	// levels' sum - which telescopes to L4, this workload's sync tier - close
	// to the sync tier as the untraced repetitions measured it, fastest
	// against fastest. Both checks compare host times, and on a shared
	// machine such a check can fail for reasons that have nothing to do with
	// the code. They are enforced in a full run, which has twelve untraced
	// repetitions to compare against and can be repeated in a quieter minute.
	// A -quick or time-boxed traced run has two, and the pipeline, whose runs
	// are of that kind, asks whether outputs are correct: there the values
	// are reported and the checks left out.
	checks := []check{{Name: "every peel level ran", OK: pr.failed == 0, Detail: fmt.Sprintf("%d function runs failed", pr.failed)}}
	if untraced.Reps < peelCheckReps {
		return checks
	}
	fastest := 0.0
	for _, v := range untraced.Samples["sync_calls_per_s"] {
		fastest = max(fastest, v)
	}
	measured := ratio(1e9, fastest)
	sum := ratio(pr.levelNs[levelFull], float64(pr.calls))
	return append(checks,
		check{Name: "peeled costs non-negative", OK: pr.nonNegative(),
			Detail: fmt.Sprintf("L0, L1-L0 .. L4-L3 host ns per call: %.0f %.0f %.0f %.0f %.0f (a level may undercut the one under it by %g%%, the resolution of these timings)",
				pr.perCall(0), pr.perCall(1), pr.perCall(2), pr.perCall(3), pr.perCall(4), 100*peelResolution)},
		check{Name: "peel sums to the measured sync-tier cost within 15%", OK: sum > 0.85*measured && sum < 1.15*measured,
			Detail: fmt.Sprintf("peel %.0f ns/call, measured %.0f ns/call", sum, measured)})
}
