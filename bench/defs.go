package main

import "runtime"

// The benchmark's vocabulary: four workloads and every metric it can emit.
// BENCHMARK.json, the runner and README.md must agree on these names;
// bench_test.go fails when they drift.

// Workload names, in run order.
const (
	wSingleFn   = "single_fn"
	wPaperMix   = "paper_mix"
	wFleetFlood = "fleet_flood"
	wTCPRemote  = "tcp_remote"
)

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
	// Reps is the repetition count of a run that is not time-boxed
	// (-seconds 0); MinReps is the floor of a time-boxed run.
	Reps, MinReps int
	// OneP runs the workload at GOMAXPROCS=1 instead of nproc. The simulator
	// runs exactly one process goroutine at a time and hands control over by
	// channel, so it has no use for a second P; given one, the Go scheduler
	// moves that chain between CPUs unpredictably (the same single_fn
	// repetition takes 1.4-3.4 s at two Ps and 1.4-1.7 s at one on a 2-vCPU
	// box). tcp_remote has goroutines that do run in parallel in production
	// (TCP writer, ServeConn reader, two engines) and keeps nproc.
	OneP bool
}

// procs is the GOMAXPROCS the workload is measured at; every result records it.
func (w workloadDef) procs() int {
	if w.OneP {
		return 1
	}
	return runtime.NumCPU()
}

var workloadDefs = []workloadDef{
	{wSingleFn, "closed loop, one function at a time at two guest tiers: only the per-call stack works, scheduler/store/controllers idle", 12, 3, true},
	{wPaperMix, "open loop, Table III AW mix on 4 shared GPUs: up to eight live functions, so sim run queue, timers and GPU sharing dominate", 3, 2, true},
	{wFleetFlood, "open loop, 40/s over 32 servers through store and controllers: three calls per function body, so the control plane works and the call stack idles", 3, 2, true},
	{wTCPRemote, "closed loop over one host-loopback TCP connection: v2 framing, bulk lane, writer goroutine and ServeConn bridge, sim nearly idle", 12, 3, false},
}

func allWorkloads() []string {
	out := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		out[i] = w.Name
	}
	return out
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef describes one metric. An end-to-end metric has a regression
// bound (a share of the parent's median); a per-layer metric has none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound judges two runs on the same seed, minutes apart: what -compare
	// and -aa see.
	Bound float64
	// Pipeline, when set, lists the metric under end_to_end in BENCHMARK.json
	// with this bound. The pipeline judges ten runs on ten seeds spread over an
	// hour and refuses a metric whose runs spread wider than its bound, so it
	// gates only what all four workloads measure and what stays within a third
	// of this bound across seeds and across the machine's slow and fast
	// minutes (see README, "The pipeline's view").
	Pipeline float64
	Layer    bool
	// Workloads lists the workloads that measure the metric; nil means all.
	Workloads []string
}

// measuredBy reports whether workload w measures the metric.
func (m metricDef) measuredBy(w string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, x := range m.Workloads {
		if x == w {
			return true
		}
	}
	return false
}

// gated reports whether BENCHMARK.json lists the metric under end_to_end.
// The rest of the end-to-end table rides in its per_layer list (from the
// untraced repetitions of a traced run) and stays bounded in -compare.
func (m metricDef) gated() bool { return m.Pipeline > 0 }

// inPipelineLayers reports whether BENCHMARK.json lists the metric under
// per_layer. failed_share is in neither list: the pipeline reads failures
// from the result line's own failed/attempted fields.
func (m metricDef) inPipelineLayers() bool { return !m.gated() && m.Name != "failed_share" }

var (
	callStack = []string{wSingleFn, wTCPRemote}
	openLoop  = []string{wPaperMix, wFleetFlood}
	simulated = []string{wSingleFn, wPaperMix, wFleetFlood}
	onlySF    = []string{wSingleFn}
	onlyMix   = []string{wPaperMix}
	onlyFleet = []string{wFleetFlood}
	onlyTCP   = []string{wTCPRemote}
)

func e2e(name, unit, better string, bound float64, w []string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: bound, Workloads: w}
}

func layer(name, unit, better string, w []string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Layer: true, Workloads: w}
}

// metricDefs is every metric, end-to-end first. virt_* values are simulated
// time (deterministic per seed); everything else is host time or a
// host-side count.
var metricDefs = []metricDef{
	// --- end to end ---
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Pipeline: 0.25},
	e2e("calls_per_s", "1/s", "higher", 0.10, nil),
	e2e("invocations_per_s", "1/s", "higher", 0.10, nil),
	// Allocation counts repeat to 0.01% on one seed. Across seeds fleet_flood's
	// move with the arrival pattern: 40 seeds gave a standard deviation of 1%,
	// and the quartiles of ten of them lie 1.4% apart (2.3% at worst).
	{Name: "allocs_per_call", Unit: "count", Better: "lower", Bound: 0.02, Pipeline: 0.05},
	{Name: "alloc_bytes_per_call", Unit: "B", Better: "lower", Bound: 0.02, Pipeline: 0.05},
	e2e("sync_calls_per_s", "1/s", "higher", 0.10, onlySF),
	e2e("allocs_per_invocation", "count", "lower", 0.02, openLoop),
	e2e("rtt_p50_us", "us", "lower", 0.10, onlyTCP),
	e2e("bulk_mb_per_s", "MiB/s", "higher", 0.15, onlyTCP),
	e2e("virt_makespan_s", "virt_s", "lower", 0.005, simulated),
	e2e("virt_e2e_p50_s", "virt_s", "lower", 0.005, openLoop),
	e2e("virt_e2e_p80_s", "virt_s", "lower", 0.005, onlyMix),
	e2e("virt_e2e_p99_s", "virt_s", "lower", 0.005, onlyFleet),
	e2e("failed_share", "ratio", "lower", 0, nil),

	// --- per layer ---
	layer("sim.switches_per_call", "count", "lower", nil),
	layer("sim.spawns_per_invocation", "count", "lower", nil),
	layer("sim.blocks_per_call", "count", "lower", nil),
	layer("sim.host_ns_per_switch", "ns", "lower", onlySF),
	layer("sim.host_ns_per_sleep", "ns", "lower", onlySF),
	layer("sim.host_ns_per_spawn", "ns", "lower", onlySF),
	layer("sim.host_ns_per_switch_64procs", "ns", "lower", onlySF),
	layer("sim.goroutines_peak", "count", "lower", nil),

	layer("cuda.host_ns_per_call", "ns", "lower", onlySF),
	layer("gpu.kernels", "count", "lower", nil),
	layer("gpu.compute_busy_virt_s", "virt_s", "lower", simulated),
	layer("gpu.copy_busy_virt_s", "virt_s", "lower", simulated),
	layer("gpu.util_pct", "%", "higher", simulated),

	layer("apiserver.calls_handled", "count", "lower", nil),
	layer("apiserver.batches_handled", "count", "lower", nil),
	layer("apiserver.async_handled", "count", "higher", nil),
	layer("apiserver.fences_handled", "count", "lower", nil),
	layer("apiserver.host_ns_per_call", "ns", "lower", onlySF),

	layer("remoting.codec_host_ns_per_call", "ns", "lower", onlySF),
	layer("remoting.sim_host_ns_per_roundtrip", "ns", "lower", onlySF),
	layer("remoting.roundtrips", "count", "lower", nil),
	layer("remoting.submits", "count", "higher", nil),
	layer("remoting.bytes_tx", "B", "lower", nil),
	layer("remoting.bytes_rx", "B", "lower", nil),
	layer("remoting.frames_v1", "count", "lower", nil),
	layer("remoting.frames_v2", "count", "lower", nil),
	layer("remoting.virt_wait_s", "virt_s", "lower", simulated),
	layer("remoting.tcp_rtt_p99_us", "us", "lower", onlyTCP),
	layer("remoting.tcp_allocs_per_roundtrip", "count", "lower", onlyTCP),
	layer("remoting.tcp_bulk_write_mb_per_s", "MiB/s", "higher", onlyTCP),
	layer("remoting.tcp_bulk_read_mb_per_s", "MiB/s", "higher", onlyTCP),

	layer("guest.calls_total", "count", "lower", nil),
	layer("guest.localized_share", "ratio", "higher", nil),
	layer("guest.forwarded", "count", "lower", nil),
	layer("guest.roundtrips", "count", "lower", nil),
	layer("guest.batch_size_mean", "count", "higher", nil),
	layer("guest.async_share", "ratio", "higher", nil),
	layer("guest.self_host_ns_per_call", "ns", "lower", callStack),
	layer("guest.self_virt_s", "virt_s", "lower", simulated),

	layer("gpuserver.queue_wait_virt_p50_s", "virt_s", "lower", openLoop),
	layer("gpuserver.queue_wait_virt_max_s", "virt_s", "lower", openLoop),
	layer("gpuserver.placements", "count", "lower", openLoop),
	layer("gpuserver.migrations", "count", "lower", openLoop),

	layer("faas.download_virt_p50_s", "virt_s", "lower", openLoop),
	layer("faas.exec_virt_p50_s", "virt_s", "lower", openLoop),
	layer("faas.retries", "count", "lower", openLoop),
	layer("faas.host_us_per_invocation_outside_calls", "us", "lower", onlyMix),

	layer("store.gets", "count", "lower", onlyFleet),
	layer("store.lists", "count", "lower", onlyFleet),
	layer("store.creates", "count", "lower", onlyFleet),
	layer("store.updates", "count", "lower", onlyFleet),
	layer("store.status_updates", "count", "lower", onlyFleet),
	layer("store.deletes", "count", "lower", onlyFleet),
	layer("store.watches", "count", "lower", onlyFleet),
	layer("store.list_items_per_invocation", "count", "lower", onlyFleet),
	layer("store.writes", "count", "lower", onlyFleet),
	layer("store.conflicts", "count", "lower", onlyFleet),
	layer("store.watch_events", "count", "lower", onlyFleet),
	layer("store.objects_final", "count", "lower", onlyFleet),
	layer("store.local_host_us_per_invocation", "us", "lower", onlyFleet),

	layer("controller.placement_reconciles_per_invocation", "count", "lower", onlyFleet),
	layer("controller.reclaim_reconciles_per_invocation", "count", "lower", onlyFleet),
	layer("controller.requeues", "count", "lower", onlyFleet),
	layer("controller.resyncs", "count", "lower", onlyFleet),
	layer("controller.bind_latency_virt_p50_s", "virt_s", "lower", onlyFleet),

	layer("modelcache.hit_rate", "ratio", "higher", onlyFleet),
	layer("modelcache.evictions", "count", "lower", onlyFleet),

	layer("bench.trace_overhead_pct", "%", "lower", nil),
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range metricDefs {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// The pipeline's view of the benchmark: the contents of BENCHMARK.json.
const pipelineRunSeconds = 30

type pipelineWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type pipelineMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type pipelineSpec struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []pipelineWorkload `json:"workloads"`
	EndToEnd   []pipelineMetric   `json:"end_to_end"`
	PerLayer   []pipelineMetric   `json:"per_layer"`
}

// benchmarkJSON derives BENCHMARK.json from the tables above.
func benchmarkJSON() pipelineSpec {
	spec := pipelineSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: pipelineRunSeconds,
	}
	for _, w := range workloadDefs {
		spec.Workloads = append(spec.Workloads, pipelineWorkload{w.Name, w.Why})
	}
	for _, m := range metricDefs {
		pm := pipelineMetric{Name: m.Name, Unit: m.Unit, Better: m.Better}
		switch {
		case m.gated():
			bound := m.Pipeline
			pm.Bound = &bound
			spec.EndToEnd = append(spec.EndToEnd, pm)
		case m.inPipelineLayers():
			spec.PerLayer = append(spec.PerLayer, pm)
		}
	}
	return spec
}
