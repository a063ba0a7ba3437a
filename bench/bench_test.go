package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"dgsf/internal/experiments"
	"dgsf/internal/workloads"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestQuickRunEmitsEveryMetric runs every workload at -quick scale with a
// traced repetition and checks that each metric a workload is said to
// measure comes out finite, that the output checks pass, and that the
// Chrome trace loads.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	dir := t.TempDir()
	for _, def := range workloadDefs {
		traceTo := filepath.Join(dir, def.Name+".json")
		res := runWorkload(def, runOpts{seed: 1, quick: true, trace: true, traceTo: traceTo})
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: check %q failed: %s", def.Name, c.Name, c.Detail)
			}
		}
		sums := res.summaries()
		for _, m := range metricDefs {
			if !m.measuredBy(def.Name) {
				continue
			}
			v, ok := res.Layers[m.Name]
			if !m.Layer {
				s, has := sums[m.Name]
				v, ok = s.Median, has && s.N > 0
			}
			if !ok {
				t.Errorf("%s: metric %s not emitted", def.Name, m.Name)
			} else if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v", def.Name, m.Name, v)
			}
		}
		for name := range res.Layers {
			if m, ok := metricByName(name); !ok || !m.Layer {
				t.Errorf("%s: emitted per-layer value %q is not in metricDefs", def.Name, name)
			}
		}

		// The pipeline's lines carry exactly the BENCHMARK.json lists.
		spec := benchmarkJSON()
		for traced, want := range map[bool][]pipelineMetric{false: spec.EndToEnd, true: spec.PerLayer} {
			var line struct {
				Correct   bool
				Attempted int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(pipelineLine(res, traced), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: correct=%v attempted=%d, %d metrics, want %d", def.Name, traced, line.Correct, line.Attempted, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", def.Name, traced, m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", def.Name, m.Name)
				}
			}
		}

		raw, err := os.ReadFile(traceTo)
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string
				Ph   string
				Pid  int
			}
		}
		if err := json.Unmarshal(raw, &trace); err != nil {
			t.Fatalf("%s: Chrome trace does not load: %v", def.Name, err)
		}
		if len(trace.TraceEvents) < 10 {
			t.Errorf("%s: Chrome trace has %d events", def.Name, len(trace.TraceEvents))
		}
	}
}

// TestNamesDoNotDrift keeps metricDefs, BENCHMARK.json and README.md in step.
func TestNamesDoNotDrift(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range metricDefs {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: outside the allowed characters", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %q defined twice", m.Name)
		}
		seen[m.Name] = true
		if m.Pipeline > 0.25 {
			t.Errorf("metric %q: bound %v above the pipeline's 0.25", m.Name, m.Pipeline)
		}
		if m.gated() && (m.Layer || m.Workloads != nil) {
			t.Errorf("metric %q: the pipeline wants a gated metric from every workload", m.Name)
		}
	}
	for _, w := range workloadDefs {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk pipelineSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := benchmarkJSON(); !reflect.DeepEqual(onDisk, want) {
		b, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the tables in defs.go; it should read:\n%s", b)
	}
	setup, ok := metricByName("setup_s")
	if !ok || !setup.gated() || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be a gated end-to-end metric in s, lower is better")
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range metricDefs {
		if !bytes.Contains(readme, []byte("`"+m.Name+"`")) {
			t.Errorf("README.md does not mention metric `%s`", m.Name)
		}
	}
	for _, w := range workloadDefs {
		if !bytes.Contains(readme, []byte("`"+w.Name+"`")) {
			t.Errorf("README.md does not mention workload `%s`", w.Name)
		}
	}
}

// TestAgreesWithExperimentDrivers pins the harness to the existing drivers:
// same seed and configuration must give the same virtual results, which
// requires the same process names (per-process RNG streams are seeded by
// name).
func TestAgreesWithExperimentDrivers(t *testing.T) {
	// The drivers run the simulator, which is twice as fast at one P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const seed = 1
	fig4 := experiments.Figure4(seed)
	for i, spec := range workloads.All() {
		run := runFunction(seed, spec, levelFull, tierPipelined, nil)
		if run.err != nil {
			t.Fatal(run.err)
		}
		if got, want := run.total-run.download, fig4[i].Times[experiments.TierAsync]; got != want {
			t.Errorf("%s: pipelined-tier total minus download = %v, Figure4 +async = %v", spec.Name, got, want)
		}
		if got, want := run.guest, fig4[i].Stats[experiments.TierAsync]; got != want {
			t.Errorf("%s: guest stats %+v, Figure4 %+v", spec.Name, got, want)
		}
	}

	// Reduced specs: what is pinned here is the harness (engine seed, process
	// names, submission order), which does not depend on the functions' size.
	w := newPaperMix(seed, true)
	out := w.run(w.specs, w.instances, nil)
	want := experiments.RunMix(seed, experiments.MixConfig{
		Specs:     quickSpecs(),
		Instances: quickInstances,
		GPUs:      mixGPUs,
		Variant:   mixVariant(),
		MeanGap:   mixMeanGap,
	})
	if got := time.Duration(math.Round(out.vals["virt_makespan_s"] * 1e9)); got != want.ProviderE2E {
		t.Errorf("paper_mix virt_makespan_s = %v, RunMix ProviderE2E = %v", got, want.ProviderE2E)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.N != 10 || s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("summarize = %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize([]float64{4, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Errorf("summarize of three = %+v", s)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 80); got != 4 {
		t.Errorf("percentile 80 of five = %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(median, q1, q3 float64) resultFile {
		s := summary{N: 10, Median: median, Q1: q1, Q3: q3}
		return resultFile{Schema: resultSchema, Metrics: map[string]metricResult{
			"calls_per_s": {Unit: "1/s", Better: "higher", Kind: "end_to_end", Bound: 0.10, Workloads: map[string]summary{wSingleFn: s}},
		}}
	}
	base := mk(100, 99, 101)
	for _, c := range []struct {
		name              string
		b                 resultFile
		worse, unresolved int
		verdict           string
	}{
		{"same", mk(95, 94, 96), 0, 0, "same"},
		{"worse", mk(85, 84, 86), 1, 0, "worse"},
		{"better", mk(120, 119, 121), 0, 0, "better"},
		{"unresolved", mk(100, 90, 110), 0, 1, "unresolved"},
	} {
		var buf bytes.Buffer
		worse, unresolved := compare(&buf, base, c.b)
		if worse != c.worse || unresolved != c.unresolved || !strings.Contains(buf.String(), c.verdict) {
			t.Errorf("%s: worse=%d unresolved=%d\n%s", c.name, worse, unresolved, buf.String())
		}
	}
}
