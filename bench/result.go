package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// resultSchema names the result-file layout. The file is self-describing:
// every metric carries its unit, direction and bound beside its values, so
// -compare and the pipeline read the same thing.
const resultSchema = "dgsf-bench/v1"

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Schema  string                  `json:"schema"`
	Env     envStamp                `json:"env"`
	Metrics map[string]metricResult `json:"metrics"`
	Digests map[string]string       `json:"virt_digests"`
	Checks  []check                 `json:"checks"`
}

// metricResult is one metric across the workloads that measure it.
type metricResult struct {
	Unit      string             `json:"unit"`
	Better    string             `json:"better"`
	Kind      string             `json:"kind"` // "end_to_end" or "per_layer"
	Bound     float64            `json:"bound"`
	Workloads map[string]summary `json:"workloads"`
}

// envStamp records where and how a result was taken.
type envStamp struct {
	Commit     string         `json:"commit"`
	Go         string         `json:"go"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS map[string]int `json:"gomaxprocs"` // by workload, see workloadDef.OneP
	Seed       int64          `json:"seed"`
	Quick      bool           `json:"quick,omitempty"`
	LoadStart  string         `json:"loadavg_start"`
	LoadEnd    string         `json:"loadavg_end"`
	Reps       map[string]int `json:"repetitions"`
	WallS      float64        `json:"wall_s"`
	Network    string         `json:"network"`
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func newEnv(seed int64, quick bool) envStamp {
	return envStamp{
		Commit:     commit(),
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: map[string]int{},
		Seed:       seed,
		Quick:      quick,
		LoadStart:  loadavg(),
		Reps:       map[string]int{},
		Network:    "tcp_remote uses the host loopback interface, not a link",
	}
}

// busy reports whether the 1-minute load average exceeds half the CPUs: on
// this class of shared 2-core box host-time medians then wander by ±12%
// instead of ±3%.
func (e envStamp) busy() bool {
	var load float64
	if _, err := fmt.Sscanf(e.LoadStart, "%f", &load); err != nil {
		return false
	}
	return load > float64(e.NProc)/2
}

// buildResult folds the workloads' results into the result-file layout.
func buildResult(env envStamp, results []*workloadResult) resultFile {
	rf := resultFile{Schema: resultSchema, Env: env, Metrics: map[string]metricResult{}, Digests: map[string]string{}}
	for _, def := range metricDefs {
		mr := metricResult{Unit: def.Unit, Better: def.Better, Kind: "end_to_end", Bound: def.Bound, Workloads: map[string]summary{}}
		if def.Layer {
			mr.Kind = "per_layer"
		}
		for _, r := range results {
			if !def.measuredBy(r.Name) {
				continue
			}
			if vals, ok := r.Samples[def.Name]; ok && !def.Layer {
				mr.Workloads[r.Name] = summarize(vals)
			} else if v, ok := r.Layers[def.Name]; ok && def.Layer {
				mr.Workloads[r.Name] = summary{N: 1, Median: v, Q1: v, Q3: v}
			}
		}
		if len(mr.Workloads) > 0 {
			rf.Metrics[def.Name] = mr
		}
	}
	for _, r := range results {
		rf.Env.Reps[r.Name] = r.Reps
		rf.Env.GOMAXPROCS[r.Name] = r.Procs
		rf.Digests[r.Name] = r.Digest
		rf.Checks = append(rf.Checks, r.Checks...)
	}
	return rf
}

func (rf resultFile) write(path string) error {
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return rf, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return rf, nil
}

// print writes every metric by name with unit, sample count, median and
// quartiles, then the checks.
func (rf resultFile) print(w io.Writer) {
	e := rf.Env
	fmt.Fprintf(w, "commit %s  %s  nproc %d  seed %d  loadavg %s -> %s  wall %.1fs\n",
		e.Commit, e.Go, e.NProc, e.Seed, e.LoadStart, e.LoadEnd, e.WallS)
	for _, wl := range allWorkloads() {
		if procs, ok := e.GOMAXPROCS[wl]; ok {
			fmt.Fprintf(w, "%s: GOMAXPROCS %d, %d repetitions\n", wl, procs, e.Reps[wl])
		}
	}
	fmt.Fprintf(w, "clocks: virt_* and *_virt_s are simulated time; everything else is host time or a host-side count. %s.\n", e.Network)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, kind := range []string{"end_to_end", "per_layer"} {
		fmt.Fprintf(tw, "\n%s metric\tworkload\tunit\tn\tmedian\tq1\tq3\tbound\n", kind)
		for _, def := range metricDefs {
			mr, ok := rf.Metrics[def.Name]
			if !ok || mr.Kind != kind {
				continue
			}
			for _, wl := range allWorkloads() {
				s, ok := mr.Workloads[wl]
				if !ok {
					continue
				}
				bound := "-"
				if kind == "end_to_end" {
					bound = fmt.Sprintf("%g%%", 100*mr.Bound)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%s\n", def.Name, wl, mr.Unit, s.N, s.Median, s.Q1, s.Q3, bound)
			}
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
	for _, wl := range sortedKeys(rf.Digests) {
		fmt.Fprintf(w, "virt_digest %s %s (%d repetitions)\n", wl, rf.Digests[wl], e.Reps[wl])
	}
	for _, c := range rf.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s: %s — %s\n", verdict, c.Workload, c.Name, c.Detail)
	}
}

func (rf resultFile) failedChecks() int {
	n := 0
	for _, c := range rf.Checks {
		if !c.OK {
			n++
		}
	}
	return n
}

// --- compare ---

// compare prints one row per (metric, workload) present in both results and
// returns how many end-to-end rows are worse or unresolved. b is judged
// against a: a is the parent (or the first of two A/A sets).
//
// Verdicts, for end-to-end metrics: unresolved when either side's
// interquartile spread is wider than the metric's bound (the runs cannot
// tell); worse / better when b's median is beyond the bound on that side;
// otherwise same. Per-layer metrics have no bound and only show movement.
func compare(w io.Writer, a, b resultFile) (worse, unresolved int) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tworkload\tunit\ta median [q1 q3]\tb median [q1 q3]\tb vs a\tbound\tverdict\n")
	for _, def := range metricDefs {
		ma, okA := a.Metrics[def.Name]
		mb, okB := b.Metrics[def.Name]
		if !okA || !okB {
			continue
		}
		for _, wl := range allWorkloads() {
			sa, okA := ma.Workloads[wl]
			sb, okB := mb.Workloads[wl]
			if !okA || !okB {
				continue
			}
			// rel > 0 means b is worse than a by that share of a's median.
			rel := 0.0
			if sa.Median != 0 {
				rel = (sb.Median - sa.Median) / sa.Median
			} else if sb.Median != 0 {
				rel = 1
			}
			if ma.Better == "higher" {
				rel = -rel
			}
			verdict, bound := "same", "-"
			if ma.Kind == "end_to_end" {
				bound = fmt.Sprintf("%g%%", 100*ma.Bound)
				switch {
				case sa.spread() > ma.Bound || sb.spread() > ma.Bound:
					verdict = "unresolved"
					unresolved++
				case rel > ma.Bound:
					verdict = "worse"
					worse++
				case rel < -ma.Bound:
					verdict = "better"
				}
			} else if rel != 0 {
				verdict = "moved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g %.6g]\t%.6g [%.6g %.6g]\t%+.2f%%\t%s\t%s\n",
				def.Name, wl, ma.Unit, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, 100*rel, bound, verdict)
		}
	}
	tw.Flush()
	for _, wl := range sortedKeys(a.Digests) {
		if db, ok := b.Digests[wl]; ok {
			same := "identical"
			if db != a.Digests[wl] {
				same = "DIFFERENT"
			}
			fmt.Fprintf(w, "virt_digest %s: %s vs %s — %s\n", wl, a.Digests[wl], db, same)
		}
	}
	fmt.Fprintf(w, "b vs a is signed so that positive is worse; %d worse, %d unresolved\n", worse, unresolved)
	return worse, unresolved
}
