package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"sort"

	"dgsf/internal/apiserver"
	"dgsf/internal/faas"
	"dgsf/internal/guest"
	"dgsf/internal/remoting"
)

// workload is one of the four benchmark workloads. setup builds the harness
// and runs one reduced warm-up repetition; rep runs one full repetition,
// decorated when tr is non-nil.
type workload interface {
	setup(tr *tracer) error
	rep(tr *tracer) repOut
	close()
}

// tracedExtras is implemented by workloads whose traced run measures more
// than one traced repetition yields (stack peeling, probes).
type tracedExtras interface {
	traceExtras(ls layerVals, untraced *workloadResult) []check
}

func newWorkload(name string, seed int64, quick bool) workload {
	switch name {
	case wSingleFn:
		return newSingleFn(seed, quick)
	case wPaperMix:
		return newPaperMix(seed, quick)
	case wFleetFlood:
		return newFleetFlood(seed, quick)
	case wTCPRemote:
		return newTCPRemote(seed, quick)
	}
	panic("unknown workload " + name)
}

// repOut is what one repetition reports.
type repOut struct {
	hostS              float64            // whole repetition, host seconds
	calls, invocations int64              // interposed API calls (guest.Stats.Total), function invocations
	attempted, failed  int64              // operations checked, and those that failed
	vals               map[string]float64 // end-to-end samples the workload computes itself
	layers             layerVals
	digest             string // hash of every virtual timestamp and count of the repetition
	errs               []string
}

func newRepOut() repOut {
	return repOut{vals: map[string]float64{}, layers: layerVals{}}
}

func (o *repOut) fail(err error) { o.failN(1, err) }

func (o *repOut) failIf(err error) {
	if err != nil {
		o.fail(err)
	}
}

func (o *repOut) failN(n int, err error) {
	o.failed += int64(n)
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
}

// digest hashes a repetition's virtual results for exact comparison.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) add(vals ...any) { fmt.Fprintln(d.h, vals...) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }

func snapshotWire() remoting.WireStats { return remoting.SnapshotWireStats() }

func addGuest(acc *guest.Stats, s guest.Stats) {
	acc.Total += s.Total
	acc.Remoted += s.Remoted
	acc.Batched += s.Batched
	acc.Localized += s.Localized
	acc.Async += s.Async
	acc.Batches += s.Batches
	acc.Fences += s.Fences
	acc.Recoveries += s.Recoveries
	acc.Redials += s.Redials
	acc.Replayed += s.Replayed
	acc.Journaled += s.Journaled
}

// layerVals holds one repetition's per-layer values by metric name.
type layerVals map[string]float64

func (l layerVals) guestCounts(g guest.Stats) {
	l["guest.calls_total"] = float64(g.Total)
	l["guest.localized_share"] = ratio(float64(g.Localized), float64(g.Total))
	l["guest.forwarded"] = float64(g.Forwarded())
	l["guest.roundtrips"] = float64(g.Roundtrips())
	l["guest.batch_size_mean"] = ratio(float64(g.Batched), float64(g.Batches))
	l["guest.async_share"] = ratio(float64(g.Async), float64(g.Total))
}

func (l layerVals) addServer(st apiserver.Stats) {
	l["apiserver.calls_handled"] += float64(st.CallsHandled)
	l["apiserver.batches_handled"] += float64(st.BatchesHandled)
	l["apiserver.async_handled"] += float64(st.AsyncHandled)
	l["apiserver.fences_handled"] += float64(st.FencesHandled)
	l["gpu.kernels"] += float64(st.Kernels)
}

func (l layerVals) wire(w remoting.WireStats) {
	l["remoting.bytes_tx"] = float64(w.BytesTx)
	l["remoting.bytes_rx"] = float64(w.BytesRx)
	l["remoting.frames_v1"] = float64(w.FramesV1)
	l["remoting.frames_v2"] = float64(w.FramesV2)
}

// invocations derives the gpuserver and faas phase metrics from the
// invocation records.
func (l layerVals) invocations(invs []*faas.Invocation) {
	var queue, download, exec []float64
	for _, inv := range invs {
		queue = append(queue, inv.QueueDelay.Seconds())
		download = append(download, (inv.DownloadDone - inv.SubmittedAt).Seconds())
		exec = append(exec, (inv.Done - inv.Granted).Seconds())
	}
	l["gpuserver.queue_wait_virt_p50_s"] = percentile(queue, 50)
	l["gpuserver.queue_wait_virt_max_s"] = percentile(queue, 100)
	l["faas.download_virt_p50_s"] = percentile(download, 50)
	l["faas.exec_virt_p50_s"] = percentile(exec, 50)
}

// fromTracer derives what only the decorators and the sim hook see.
func (l layerVals) fromTracer(tr *tracer, calls, invocations int64) {
	l["sim.switches_per_call"] = ratio(float64(tr.simRuns.Load()), float64(calls))
	l["sim.blocks_per_call"] = ratio(float64(tr.simBlocks.Load()), float64(calls))
	l["sim.spawns_per_invocation"] = ratio(float64(tr.simSpawns.Load()), float64(invocations))
	l["sim.goroutines_peak"] = float64(tr.goroutinesPeak.Load())

	caller := tr.catTotal(catCaller)
	submits := int64(0)
	if a := tr.aggs[aggKey{catCaller, "Submit"}]; a != nil {
		submits = a.n
	}
	l["remoting.roundtrips"] = float64(caller.n - submits)
	l["remoting.submits"] = float64(submits)
	l["remoting.virt_wait_s"] = float64(caller.virt) / 1e9

	api := tr.catTotal(catAPI)
	l["guest.self_host_ns_per_call"] = ratio(float64(api.host-api.childHost), float64(api.n))
	l["guest.self_virt_s"] = float64(api.virt-api.childVirt) / 1e9
}

// check is one output check; a failed check fails the run.
type check struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	OK       bool   `json:"ok"`
	Detail   string `json:"detail,omitempty"`
}

// workloadResult is everything one workload's run produced.
type workloadResult struct {
	Name      string
	Procs     int // GOMAXPROCS the workload ran at
	Reps      int
	Samples   map[string][]float64 // end-to-end metric -> one sample per repetition
	Layers    layerVals            // traced run only
	Digest    string
	Attempted int64
	Failed    int64
	Checks    []check
}

func (r *workloadResult) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, check{Workload: r.Name, Name: name, OK: ok, Detail: detail})
}

func (r *workloadResult) ok() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// summaries returns the order statistics of every end-to-end metric.
func (r *workloadResult) summaries() map[string]summary {
	out := make(map[string]summary, len(r.Samples))
	for name, vals := range r.Samples {
		out[name] = summarize(vals)
	}
	return out
}

// runOpts selects how a workload is run.
type runOpts struct {
	seed    int64
	seconds float64 // > 0: repeat until this much host time is measured; 0: the workload's fixed count
	quick   bool    // test scale: reduced sizes, one set-up, few repetitions
	trace   bool    // follow the untraced repetitions with one traced repetition
	traceTo string  // Chrome trace file, when trace is set
}

// timedRep runs one repetition with the allocator counters read around it.
// Every repetition starts from a collected heap, so none drags the garbage
// of the ones before it along.
func timedRep(w workload, tr *tracer) (out repOut, mallocs, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	out = w.rep(tr)
	runtime.ReadMemStats(&m1)
	return out, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// runWorkload sets the workload up, measures its repetitions and checks
// their outputs.
func runWorkload(def workloadDef, o runOpts) *workloadResult {
	res := &workloadResult{Name: def.Name, Procs: def.procs(), Samples: map[string][]float64{}}
	runtime.GOMAXPROCS(res.Procs)
	sample := func(name string, v float64) {
		if m, ok := metricByName(name); ok && m.measuredBy(def.Name) {
			res.Samples[name] = append(res.Samples[name], v)
		}
	}

	// Every repetition runs on a harness set up afresh, and every set-up is a
	// setup_s sample: the pipeline compares one setup_s value per run, so it
	// is a median, and its samples are spread over the whole run instead of
	// crowding into the run's first half second. Set-up is timed at one P on
	// every workload. It is the one host-time metric the pipeline must gate,
	// and a process that wants both CPUs of a 2-vCPU box is at the mercy of
	// whatever else the host schedules: at nproc tcp_remote's set-up read
	// 0.12-0.47 s within one set of ten runs, and 35% more than at one P when
	// quiet. What tcp_remote exists to measure at nproc are its repetitions.
	var w workload
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	fresh := func() bool {
		if w != nil {
			w.close()
		}
		runtime.GC()
		runtime.GOMAXPROCS(1)
		start := hostNow()
		w = newWorkload(def.Name, o.seed, o.quick)
		err := w.setup(nil)
		sample("setup_s", hostNow().Sub(start).Seconds())
		runtime.GOMAXPROCS(res.Procs)
		if err != nil {
			res.check("set-up", false, err.Error())
		}
		return err == nil
	}

	// Untraced repetitions: the end-to-end metrics.
	minReps, minSetups, target := def.Reps, 5, 0.0
	switch {
	case o.quick:
		minReps, minSetups = 2, 1
	case o.seconds > 0 && o.trace:
		// A time-boxed traced run spends its time on the traced repetition
		// and its extras; two untraced repetitions give it its yardstick.
		minReps = 2
	case o.seconds > 0:
		minReps, target = def.MinReps, o.seconds
	}
	var digests []string
	var calls []int64
	var measured, last float64
	for res.Reps < minReps || (target > 0 && measured+last <= target) {
		start := hostNow()
		if !fresh() {
			return res
		}
		out, mallocs, bytes := timedRep(w, nil)
		res.Reps++
		last = hostNow().Sub(start).Seconds()
		measured += last
		for name, v := range out.vals {
			sample(name, v)
		}
		sample("invocations_per_s", ratio(float64(out.invocations), out.hostS))
		sample("allocs_per_call", ratio(float64(mallocs), float64(out.calls)))
		sample("alloc_bytes_per_call", ratio(float64(bytes), float64(out.calls)))
		sample("allocs_per_invocation", ratio(float64(mallocs), float64(out.invocations)))
		sample("failed_share", ratio(float64(out.failed), float64(out.attempted)))
		res.Attempted += out.attempted
		res.Failed += out.failed
		digests = append(digests, out.digest)
		calls = append(calls, out.calls)
		for _, e := range out.errs {
			res.check(fmt.Sprintf("repetition %d", res.Reps), false, e)
		}
	}
	for len(res.Samples["setup_s"]) < minSetups {
		if !fresh() {
			return res
		}
	}
	res.Digest = digests[0]
	for i, d := range digests {
		if d != digests[0] || calls[i] != calls[0] {
			res.check("determinism", false, fmt.Sprintf("repetition %d: virt_digest %s with %d calls, repetition 1: %s with %d",
				i+1, d, calls[i], digests[0], calls[0]))
		}
	}
	res.check("failed_share is 0", res.Failed == 0, fmt.Sprintf("%d of %d operations failed", res.Failed, res.Attempted))
	if !o.trace {
		return res
	}

	// Traced repetition on a fresh instance: the per-layer metrics.
	w.close()
	tr := newTracer()
	w = newWorkload(def.Name, o.seed, o.quick)
	if err := w.setup(tr); err != nil {
		res.check("traced set-up", false, err.Error())
		return res
	}
	tr.reset() // drop what the warm-up recorded
	out, _, _ := timedRep(w, tr)
	for _, e := range out.errs {
		res.check("traced repetition", false, e)
	}
	res.check("tracing leaves the virtual results untouched", out.digest == res.Digest,
		fmt.Sprintf("traced virt_digest %s, untraced %s", out.digest, res.Digest))
	res.Layers = out.layers
	untraced := ratio(float64(out.invocations), summarize(res.Samples["invocations_per_s"]).Median)
	res.Layers["bench.trace_overhead_pct"] = 100 * ratio(out.hostS-untraced, untraced)
	if o.traceTo != "" {
		if err := tr.writeChrome(o.traceTo, def.Name); err != nil {
			res.check("write trace", false, err.Error())
		}
	}
	// The extras time untraced code. The kept spans must be gone by then: a
	// few MB of them in the heap, scanned by every collection, slow the
	// sync-tier bodies by 12-17%.
	tr.spans = nil
	if x, ok := w.(tracedExtras); ok {
		for _, c := range x.traceExtras(res.Layers, res) {
			c.Workload = def.Name
			res.Checks = append(res.Checks, c)
		}
	}
	return res
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
