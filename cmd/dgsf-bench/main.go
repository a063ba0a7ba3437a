// Command dgsf-bench regenerates the tables and figures of the DGSF paper's
// evaluation (§VIII) on the simulated substrate and prints them in the
// paper's layout, annotated with the paper-reported values for comparison.
//
// Usage:
//
//	dgsf-bench                  # every experiment
//	dgsf-bench -exp table2      # one experiment; -h lists the names
//	dgsf-bench -seed 7          # change the simulation seed
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"dgsf/internal/experiments"
	"dgsf/internal/gpu"
	"dgsf/internal/guest"
)

// Flags the experiments read.
var (
	seed      = flag.Int64("seed", 1, "simulation seed")
	runs      = flag.Int("runs", 3, "runs to average for table2/table5")
	csvOut    = flag.String("csv", "", "directory to write figure time-series as CSV (fig7, fig8)")
	schedules = flag.Int("schedules", 50, "randomized fault schedules per seed for -exp chaos")
	reproDir  = flag.String("repro", ".", "directory for shrunken chaos reproducer files")
)

// experimentTable lists every experiment once, in the order a full run prints
// them: the -exp help text, its validation and the run loop all read it.
var experimentTable = []struct {
	name string
	run  func()
}{
	{"table2", func() { table2(*seed, *runs) }},
	{"fig3", func() { fig3(*seed) }},
	{"fig4", func() { fig4(*seed) }},
	{"table3", func() { table3(*seed) }},
	{"fig5", func() { fig5(*seed) }},
	{"table4", func() { table4(*seed) }},
	{"fig6", func() { fig6(*seed) }},
	{"fig7", func() { fig7(*seed) }},
	{"table5", func() { table5(*seed, *runs) }},
	{"fig8", func() { fig8(*seed) }},
	{"sched", func() { sched(*seed) }},
	{"sweep", func() { sweep(*seed) }},
	{"rtt", func() { rtt(*seed) }},
	{"scale", func() { scale(*seed) }},
	{"cache", func() { cache(*seed) }},
	{"faults", func() { faultsExp(*seed) }},
	{"fleet", func() { fleetExp(*seed) }},
	{"pipeline", func() { pipelineExp(*seed) }},
	{"chaos", func() { chaosExp(*seed, *schedules, *reproDir) }},
}

func main() {
	names := make([]string, len(experimentTable))
	for i, x := range experimentTable {
		names[i] = x.name
	}
	exp := flag.String("exp", "all", "experiment to run (all, "+strings.Join(names, ", ")+")")
	flag.Parse()
	if *exp != "all" && !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *csvOut != "" {
		if err := os.MkdirAll(*csvOut, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	for _, x := range experimentTable {
		if *exp != "all" && *exp != x.name {
			continue
		}
		//lint:allow simdeterminism reporting wall time of the benchmark harness itself, outside the simulation
		start := time.Now()
		x.run()
		//lint:allow simdeterminism wall-time report, not simulation state
		fmt.Printf("  [%s regenerated in %.1fs wall time]\n\n", x.name, time.Since(start).Seconds())
	}
}

func s(d time.Duration) string { return fmt.Sprintf("%.1fs", d.Seconds()) }

// writeSeriesCSV dumps utilization series (one column per GPU) to a CSV.
func writeSeriesCSV(name string, series [][]gpu.Sample) {
	if *csvOut == "" || len(series) == 0 {
		return
	}
	var b strings.Builder
	b.WriteString("t_seconds")
	for i := range series {
		fmt.Fprintf(&b, ",gpu%d_util", i)
	}
	b.WriteString("\n")
	for row := 0; row < len(series[0]); row++ {
		fmt.Fprintf(&b, "%.3f", series[0][row].At.Seconds())
		for _, col := range series {
			v := 0.0
			if row < len(col) {
				v = col[row].Util
			}
			fmt.Fprintf(&b, ",%.2f", v)
		}
		b.WriteString("\n")
	}
	path := *csvOut + "/" + name + ".csv"
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	fmt.Printf("  wrote %s\n", path)
}

func pct(new, old time.Duration) string {
	if old == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.0f%%", 100*(float64(new)/float64(old)-1))
}

func header(title string) {
	fmt.Println(title)
	fmt.Println(strings.Repeat("-", len(title)))
}

func table2(seed int64, runs int) {
	header("Table II: DGSF workloads (averaged over " + fmt.Sprint(runs) + " runs)")
	rows := experiments.Table2(seed, runs)
	fmt.Printf("%-20s %9s %9s %9s %9s %9s %10s\n", "workload", "peak-mem", "native", "dgsf", "lambda", "cpu", "migration")
	paper := map[string][3]float64{ // native, dgsf, lambda (paper, seconds)
		"kmeans": {14.0, 9.9, 9.9}, "covidctnet": {25.1, 22.4, 24.6},
		"facedetection": {18.5, 16.4, 17.9}, "faceidentification": {13.4, 10.5, 18.0},
		"nlp": {34.3, 32.4, 60.4}, "resnet": {26.7, 24.8, 47.1},
	}
	for _, r := range rows {
		fmt.Printf("%-20s %8dMB %9s %9s %9s %9s %10s\n",
			r.Workload, r.PeakMemMB, s(r.Native), s(r.DGSF), s(r.Lambda), s(r.CPU), fmt.Sprintf("%dms", r.Migration.Milliseconds()))
		p := paper[r.Workload]
		fmt.Printf("%-20s %9s %8.1fs %8.1fs %8.1fs\n", "  (paper)", "", p[0], p[1], p[2])
	}
}

func fig3(seed int64) {
	header("Figure 3: phase breakdown (download / init / load / process)")
	rows := experiments.Figure3(seed)
	for _, r := range rows {
		ph := r.Phases
		fmt.Printf("%-20s %-12s dl=%-7s init=%-7s load=%-7s proc=%-7s total=%s\n",
			r.Workload, r.Mode, s(ph.Download), s(ph.Init), s(ph.Load), s(ph.Process), s(ph.Total()))
	}
}

func fig4(seed int64) {
	header("Figure 4: ablation of DGSF's optimizations (downloads excluded)")
	rows := experiments.Figure4(seed)
	tiers := experiments.Tiers()
	for _, r := range rows {
		fmt.Printf("%-20s", r.Workload)
		for _, tr := range tiers {
			fmt.Printf(" %s=%-7s", tr, s(r.Times[tr]))
		}
		noopt, full := r.Times[experiments.TierNoOpt], r.Times[experiments.TierBatching]
		fmt.Printf(" improvement=%.0f%%\n", 100*(1-float64(full)/float64(noopt)))
		st := r.Stats[experiments.TierBatching]
		base := r.Stats[experiments.TierHandlePool]
		if base.Forwarded() > 0 {
			fmt.Printf("%-20s forwarded calls: %d -> %d (-%.0f%%), round trips: %d -> %d\n",
				"", base.Forwarded(), st.Forwarded(),
				100*(1-float64(st.Forwarded())/float64(base.Forwarded())),
				base.Roundtrips(), st.Roundtrips())
		}
	}
	fmt.Println("  (paper: up to 50% runtime improvement; -48% forwarded calls for ONNX, -96% for TF)")
	_ = guest.Stats{}
}

func table3(seed int64) {
	header("Table III: high load (exp. inter-arrival, 2s mean), 4 GPUs")
	rows := experiments.Table3(seed)
	fmt.Printf("%-4s %-22s %12s %18s %8s\n", "mix", "variant", "end-to-end", "function-e2e-sum", "util")
	var base map[string]experiments.MixResult = map[string]experiments.MixResult{}
	for _, r := range rows {
		if r.Variant == "no-sharing" {
			base[r.Mix] = r
		}
	}
	for _, r := range rows {
		b := base[r.Mix]
		fmt.Printf("%-4s %-22s %9s %3s %13s %4s %7.1f%%\n",
			r.Mix, r.Variant, s(r.ProviderE2E), pct(r.ProviderE2E, b.ProviderE2E),
			s(r.E2ESum), pct(r.E2ESum, b.E2ESum), r.MeanUtil)
	}
	fmt.Println("  (paper AW: no-sharing 223.6s/2789.3s; best-fit -7%/-17%; worst-fit -8%/-20%)")
}

func fig5(seed int64) {
	header("Figure 5: per-workload queue+exec delay, high load (sharing best-fit)")
	for _, r := range experiments.Figure5(seed) {
		fmt.Printf("%-4s %-20s queue=%-8s exec=%-8s\n", r.Mix, r.Workload, s(r.Queue), s(r.Exec))
	}
}

func table4(seed int64) {
	header("Table IV: low load (exp. inter-arrival, 3s mean), 4 vs 3 GPUs")
	rows := experiments.Table4(seed)
	base := map[int]experiments.MixResult{}
	for _, r := range rows {
		if r.Variant == "no-sharing" {
			base[r.GPUs] = r
		}
	}
	for _, r := range rows {
		b := base[r.GPUs]
		fmt.Printf("%d GPUs %-22s e2e %9s %4s   sum %10s %4s   util %.1f%%\n",
			r.GPUs, r.Variant, s(r.ProviderE2E), pct(r.ProviderE2E, b.ProviderE2E),
			s(r.E2ESum), pct(r.E2ESum, b.E2ESum), r.MeanUtil)
	}
	fmt.Println("  (paper 3 GPUs: no-sharing 282.5s/2506.1s; best-fit -10%/-27%; worst-fit -10%/-28%)")
}

func fig6(seed int64) {
	header("Figure 6: per-workload queue+exec delay, low load")
	for _, r := range experiments.Figure6(seed) {
		fmt.Printf("%-20s %-20s queue=%-8s exec=%-8s\n", r.Mix, r.Workload, s(r.Queue), s(r.Exec))
	}
}

func fig7(seed int64) {
	header("Figure 7: GPU utilization during a burst (10 bursts of all six, 2s apart)")
	rs := experiments.Figure7(seed)
	for _, r := range rs {
		fmt.Printf("%-22s total=%s  mean-util=%.1f%%\n", r.Variant, s(r.ProviderE2E), r.MeanUtil)
		writeSeriesCSV("fig7-"+r.Variant, r.Series)
	}
	if len(rs) == 2 {
		fmt.Printf("  utilization increase from sharing: %.0f%% relative (paper: +16%%: 31.8%% -> 37.1%%)\n",
			100*(rs[1].MeanUtil/rs[0].MeanUtil-1))
		// ASCII sparkline of GPU 0's smoothed utilization.
		for _, r := range rs {
			fmt.Printf("  %-20s gpu0 ", r.Variant)
			series := r.Series[0]
			step := len(series)/60 + 1
			marks := []rune(" .:-=+*#%@")
			for i := 0; i < len(series); i += step {
				level := int(series[i].Util / 100 * float64(len(marks)-1))
				if level >= len(marks) {
					level = len(marks) - 1
				}
				fmt.Print(string(marks[level]))
			}
			fmt.Println()
		}
	}
}

func table5(seed int64, runs int) {
	header("Table V: migration microbenchmark (averaged over " + fmt.Sprint(runs) + " runs)")
	fmt.Printf("%-10s %10s %10s %14s %12s\n", "array", "native", "dgsf", "dgsf+migration", "migration")
	paper := map[int64][4]float64{
		323: {3.04, 0.04, 0.25, 0.50}, 3514: {3.06, 0.06, 0.70, 0.53},
		7802: {3.10, 0.10, 1.38, 1.19}, 13194: {3.11, 0.12, 2.34, 2.12},
	}
	for _, r := range experiments.Table5(seed, runs) {
		fmt.Printf("%7dMB %9.2fs %9.3fs %13.2fs %11.2fs\n",
			r.ArrayMB, r.NativeE2E.Seconds(), r.DGSFE2E.Seconds(), r.MigratedE2E.Seconds(), r.MigrationDur.Seconds())
		p := paper[r.ArrayMB]
		fmt.Printf("%10s %9.2fs %9.3fs %13.2fs %11.2fs\n", "  (paper)", p[0], p[1], p[2], p[3])
	}
}

func fig8(seed int64) {
	header("Figure 8 / §VIII-E: migration case study (2 NLP + 2 image classification, 2 GPUs)")
	paper := map[string]float64{"no-sharing": 43.6, "worst-fit": 38.9, "best-fit": 50.6, "best-fit+migration": 42.6}
	for _, r := range experiments.Figure8(seed) {
		fmt.Printf("%-22s total=%-8s migrations=%d   (paper: %.1fs)\n", r.Config, s(r.Total), r.Migrations, paper[r.Config])
		writeSeriesCSV("fig8-"+r.Config, r.UtilSeries)
	}
}

func sched(seed int64) {
	header("Extension: queue-policy ablation (§VIII-D future work), high load")
	for _, r := range experiments.SchedulingAblation(seed) {
		fmt.Printf("%-6s e2e=%-8s sum=%-9s queue mean=%-7s std=%-7s max=%s\n",
			r.Policy, s(r.ProviderE2E), s(r.E2ESum), s(r.QueueMean), s(r.QueueStd), s(r.QueueMax))
	}
	fmt.Println("  (SJF trades the worst function's wait for a lower mean, as the paper predicts)")
}

func sweep(seed int64) {
	header("Extension: sharing-degree sweep (burst, smaller workloads)")
	for _, r := range experiments.SharingSweep(seed) {
		fmt.Printf("%d API servers/GPU: total=%-8s sum=%-9s util=%.1f%%\n",
			r.ServersPerGPU, s(r.ProviderE2E), s(r.E2ESum), r.MeanUtil)
	}
	fmt.Println("  (paper: 2/GPU helps; more \"yields no significant improvement\")")
}

func rtt(seed int64) {
	header("Extension: remoting-latency sensitivity (batching vs pipelined lane)")
	for _, r := range experiments.RTTSweep(seed) {
		verdict := "DGSF wins"
		if r.DGSF >= r.Native && r.DGSFAsync >= r.Native {
			verdict = "native wins"
		}
		fmt.Printf("%-20s RTT %-8v native=%-7s dgsf=%-7s +async=%-7s %s\n",
			r.Workload, r.RTT, s(r.Native), s(r.DGSF), s(r.DGSFAsync), verdict)
	}
}

func scale(seed int64) {
	header("Extension: GPU-server scale-out (§IV selection policies)")
	for _, r := range experiments.ScaleOut(seed) {
		fmt.Printf("%d server(s), %-12s e2e=%-8s sum=%s\n", r.Servers, r.Pick, s(r.ProviderE2E), s(r.E2ESum))
	}
}

func cache(seed int64) {
	header("Extension: model cache (GPU-resident + host-staged), cold vs warm")
	fmt.Printf("%-20s %-10s %10s %10s %10s\n", "workload", "state", "e2e", "download", "model-load")
	for _, r := range experiments.CacheColdWarm(seed) {
		for _, m := range []struct {
			name string
			pt   experiments.CachePoint
		}{{"cold", r.Cold}, {"warm-host", r.WarmHost}, {"warm-gpu", r.WarmGPU}} {
			fmt.Printf("%-20s %-10s %10s %10s %10s\n", r.Workload, m.name, s(m.pt.E2E), s(m.pt.Download), s(m.pt.Load))
		}
	}
	fmt.Println("  (warm-gpu adopts the GPU-resident working set: no model download, no load phase)")
	fmt.Println()
	header("Extension: model cache under mixed load (SW mix, 4 GPUs, 2 servers/GPU)")
	for _, r := range experiments.CacheUnderLoad(seed) {
		st := r.Stats
		fmt.Printf("%-10s e2e=%-8s sum=%-9s attach gpu/host/miss=%d/%d/%d (gpu hit rate %.0f%%)\n",
			r.Policy, s(r.ProviderE2E), s(r.E2ESum), st.DeviceHits, st.HostHits, st.Misses, 100*st.DeviceHitRate())
		fmt.Printf("%-10s pins=%d evictions=%d swapped-out=%dMB download-cache hits=%d/%d\n",
			"", st.Pins, st.DeviceEvictions, st.SwapOutBytes>>20, r.DownloadHits, r.Invocations)
	}
	fmt.Println("  (locality placement routes repeats to servers already holding their model)")
}

func fleetExp(seed int64) {
	header("Extension: fleet control plane (watched store + reconcilers, 120 GPU servers)")
	r := experiments.RunFleet(seed, 120, 240)
	fmt.Printf("servers=%d invocations=%d done=%d failed=%d lost=%d retried=%d\n",
		r.Servers, r.Invocations, r.Done, r.Failed, r.Lost, r.Retried)
	fmt.Printf("controller-restarts=%d gpu-server-failures=%d staged-bytes=%dMB provider-e2e=%s\n",
		r.CtrlRestarts, r.FailedGS, r.StagedBytes>>20, s(r.ProviderE2E))
	fmt.Println("store/controller counters:")
	fmt.Print(indent(r.MetricsTable, "  "))
	fmt.Println("  (lost=0 is the acceptance bar: every session converges to Done across")
	fmt.Println("   machine failures and a placement-controller kill mid-reconcile)")
}

func pipelineExp(seed int64) {
	header("Extension: GPU-side data plane (chained handoff, peer copy, model fan-out)")
	r := experiments.RunPipeline(seed)
	fmt.Printf("same-server chain:  handoff=%-8s bounce=%-8s saved=%s\n",
		s(r.SameHandoff), s(r.SameBounce), s(r.SameBounce-r.SameHandoff))
	for _, c := range r.Cross {
		fmt.Printf("cross-server chain: rtt=%-6v peer=%-8s bounce=%-8s saved=%s (peer-copies=%d)\n",
			c.RTT, s(c.Peer), s(c.Bounce), s(c.Bounce-c.Peer), c.PeerCopies)
	}
	fmt.Printf("%d-way fan-out:      broadcast=%-8s baseline=%-8s saved=%s\n",
		r.FanOut, s(r.BroadcastE2E), s(r.BaselineE2E), s(r.BaselineE2E-r.BroadcastE2E))
	fmt.Println("data-plane counters (same-server run):")
	fmt.Print(indent(r.MetricsTable, "  "))

	handoffBeats := r.SameHandoff < r.SameBounce
	peerBeats := len(r.Cross) > 0
	for _, c := range r.Cross {
		peerBeats = peerBeats && c.Peer < c.Bounce && c.PeerCopies > 0
	}
	fmt.Printf("pipeline_summary handoff_beats_bounce=%v peer_beats_bounce=%v broadcast_loads=%d broadcast_clones=%d bypass_hits=%d fallbacks=%d\n",
		handoffBeats, peerBeats, r.BroadcastLoads, r.BroadcastClones, r.BypassHits, r.Fallbacks)
	fmt.Println("  (the GPU-side handoff must strictly beat the objstore bounce at every")
	fmt.Println("   placement and RTT, and an N-way fan-out must stage the model once)")
}

func chaosExp(seed int64, schedules int, reproDir string) {
	header("Extension: chaos search (randomized fault schedules + invariant oracle)")
	r := experiments.RunChaos(seed, schedules, reproDir, func(format string, args ...any) {
		fmt.Printf("  "+format+"\n", args...)
	})
	fmt.Printf("seed=%d schedules=%d (fleet=%d pipeline=%d) invocations=%d recoveries=%d fallbacks=%d\n",
		r.Seed, r.Schedules, r.Fleet, r.Pipeline, r.Invocations, r.Recoveries, r.Fallbacks)
	for _, t := range r.Trials {
		fmt.Printf("  FAIL trial=%d %s repro=%s\n", t.Trial, t.Schedule, t.Repro)
		for _, v := range t.Result.Violations {
			fmt.Printf("    [%s] %s\n", v.Check, v.Detail)
		}
	}
	fmt.Println(r.Summary())
	fmt.Println("  (violations=0 hangs=0 is the acceptance bar: every randomized fault")
	fmt.Println("   schedule must leave the cluster's invariants intact; a failing schedule")
	fmt.Println("   is auto-shrunk to a minimal reproducer JSON for replay)")
}

// indent prefixes every line of s.
func indent(text, prefix string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		b.WriteString(prefix)
		b.WriteString(line)
		b.WriteString("\n")
	}
	return b.String()
}

func faultsExp(seed int64) {
	header("Extension: fault injection + crash recovery (SW mix, recoverable guests)")
	rows := experiments.RunFaults(seed)
	var base experiments.FaultsResult
	for _, r := range rows {
		if r.Scenario == "baseline" {
			base = r
		}
	}
	fmt.Printf("%-16s %4s %5s %17s %12s %5s %13s %5s\n",
		"scenario", "invs", "recov", "kill/gs/drop/corr", "end-to-end", "", "e2e-sum", "")
	for _, r := range rows {
		fmt.Printf("%-16s %4d %5d %8d/%d/%d/%d %12s %5s %13s %5s\n",
			r.Scenario, r.Invocations, r.Recovered,
			r.Killed, r.FailedGS, r.Dropped, r.Corrupted,
			s(r.ProviderE2E), pct(r.ProviderE2E, base.ProviderE2E),
			s(r.E2ESum), pct(r.E2ESum, base.E2ESum))
	}
	for _, r := range rows {
		if r.GPUChains+r.Fallbacks > 0 {
			fmt.Printf("  %s: chains over the data plane — gpu-handoff=%d host-bounce-fallback=%d\n",
				r.Scenario, r.GPUChains, r.Fallbacks)
		}
	}
	fmt.Println("  (recov = invocations that redialed and replayed their session at least once;")
	fmt.Println("   deltas are read against the no-fault baseline with the same recovery machinery on)")
}
