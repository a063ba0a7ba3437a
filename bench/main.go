// Command bench is the repository's benchmark: four workloads over the
// simulated DGSF stack, end-to-end metrics in two clocks (virt_* is simulated
// time, everything else host time or host-side counts), and — with -trace —
// per-layer metrics from a separately traced run. See README.md.
//
//	go run ./bench                          all four workloads, fixed repetition counts
//	go run ./bench -trace out.json          ... plus per-layer metrics and Chrome traces
//	go run ./bench -out bench/results/x.json
//	go run ./bench -compare a.json b.json   judge b against a
//	go run ./bench -aa                      run the set twice and compare the halves
//
// The pipeline drives one workload per process through bench/run.sh:
//
//	--workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run: all, "+strings.Join(allWorkloads(), ", "))
		seed         = flag.Int64("seed", 1, "seed of every generated input; repetitions share it, so virtual results must repeat exactly")
		seconds      = flag.Float64("seconds", 0, "host seconds of repetitions to measure per workload; 0 runs each workload's fixed repetition count")
		traceFlag    = flag.String("trace", "0", "1 or a file name: add a traced run (per-layer metrics, Chrome trace-event file); 0: end-to-end metrics only")
		quick        = flag.Bool("quick", false, "test scale: reduced workloads, two repetitions")
		out          = flag.String("out", "", "write the result file here")
		doCompare    = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		aa           = flag.Bool("aa", false, "run the selected workloads twice and compare the two sets")
	)
	flag.Parse()

	if *doCompare {
		os.Exit(compareFiles(flag.Args()))
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}
	defs := workloadDefs
	if *workloadFlag != "all" {
		def, ok := workloadByName(*workloadFlag)
		if !ok {
			fatalf("unknown workload %q (have %s)", *workloadFlag, strings.Join(allWorkloads(), ", "))
		}
		defs = []workloadDef{def}
	}
	o := runOpts{seed: *seed, seconds: *seconds, quick: *quick, trace: *traceFlag != "0" && *traceFlag != ""}

	run := func() (resultFile, []*workloadResult) {
		env := newEnv(*seed, *quick)
		if env.busy() {
			fmt.Fprintf(os.Stderr, "warning: load average %q exceeds nproc/2; host-time medians will be noisy\n", env.LoadStart)
		}
		start := hostNow()
		var results []*workloadResult
		for _, def := range defs {
			ro := o
			if ro.trace {
				ro.traceTo = traceFile(*traceFlag, def.Name, len(defs) > 1)
			}
			results = append(results, runWorkload(def, ro))
		}
		env.LoadEnd, env.WallS = loadavg(), hostNow().Sub(start).Seconds()
		return buildResult(env, results), results
	}

	rf, results := run()
	rf.print(os.Stdout)
	failed := rf.failedChecks()
	if *aa {
		second, _ := run()
		second.print(os.Stdout)
		fmt.Println("\nA/A: second set against the first")
		worse, _ := compare(os.Stdout, rf, second)
		failed += second.failedChecks() + worse
	}
	if *out != "" {
		if err := rf.write(*out); err != nil {
			fatalf("%v", err)
		}
	}
	if len(results) == 1 {
		fmt.Printf("%s\n", pipelineLine(results[0], o.trace))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// traceFile resolves -trace to the Chrome trace file of one workload.
// "1" puts it with the build outputs; a name is used as given, with the
// workload inserted before the extension when several workloads run.
func traceFile(flagVal, workload string, several bool) string {
	if flagVal == "1" {
		dir := ".bench_build"
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatalf("%v", err)
		}
		return filepath.Join(dir, "trace-"+workload+".json")
	}
	if !several {
		return flagVal
	}
	ext := filepath.Ext(flagVal)
	return strings.TrimSuffix(flagVal, ext) + "." + workload + ext
}

func compareFiles(args []string) int {
	if len(args) != 2 {
		fatalf("-compare takes two result files")
	}
	a, err := readResult(args[0])
	if err != nil {
		fatalf("%v", err)
	}
	b, err := readResult(args[1])
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("a: %s (commit %s)\nb: %s (commit %s)\n", args[0], a.Env.Commit, args[1], b.Env.Commit)
	if worse, _ := compare(os.Stdout, a, b); worse > 0 {
		return 1
	}
	return 0
}

// pipelineLine is the one-line JSON result the pipeline reads: with tracing
// off every BENCHMARK.json end_to_end metric, with tracing on every per_layer
// metric, each the median over the run's repetitions. A per-layer metric this
// workload does not measure reads 0.
func pipelineLine(r *workloadResult, traced bool) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	e2e := r.summaries()
	for _, def := range metricDefs {
		switch {
		case !traced && def.gated():
			metrics[def.Name] = value{e2e[def.Name].Median, def.Unit}
		case traced && def.inPipelineLayers() && def.Layer:
			metrics[def.Name] = value{r.Layers[def.Name], def.Unit}
		case traced && def.inPipelineLayers():
			metrics[def.Name] = value{e2e[def.Name].Median, def.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.ok(), max(r.Attempted, 1), r.Failed, metrics})
	if err != nil {
		fatalf("%v", err)
	}
	return line
}
