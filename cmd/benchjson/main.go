// Command benchjson converts `go test -bench . -benchmem` output into a
// machine-readable JSON report, used by CI to publish the remoting
// micro-benchmarks (BENCH_remoting.json) with ns/op, B/op and allocs/op per
// benchmark.
//
// Typical use:
//
//	go test -bench . -benchmem ./internal/remoting/... |
//	    go run ./cmd/benchjson -merge BENCH_remoting.json -o BENCH_remoting.json
//
// -merge preserves the "baseline" section of an existing report, so the
// pre-optimization numbers stay recorded next to every fresh run;
// -baseline instead stores the parsed input as the baseline section itself.
//
// -gate FILE turns benchjson into CI's perf-regression gate: the parsed
// input is compared against FILE's "current" section and the command exits
// nonzero when any benchmark's allocs/op rose, or its B/op or ns/op
// regressed more than -tolerance (default 20%). Benchmarks present on only
// one side are reported but never fail the gate, so adding a benchmark is
// not a regression:
//
//	go test -bench . -benchmem ./internal/remoting/... | tee bench.txt
//	go run ./cmd/benchjson -gate BENCH_remoting.json bench.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result.
type Bench struct {
	Name     string  `json:"name"`
	Pkg      string  `json:"pkg,omitempty"`
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// Report is the JSON document benchjson emits.
type Report struct {
	Note     string  `json:"note,omitempty"`
	Baseline []Bench `json:"baseline,omitempty"`
	Current  []Bench `json:"current,omitempty"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	merge := flag.String("merge", "", "existing report whose baseline section is preserved")
	asBaseline := flag.Bool("baseline", false, "store parsed results as the baseline section")
	note := flag.String("note", "", "free-form note recorded in the report")
	gateFile := flag.String("gate", "", "committed report to gate against: fail on alloc or >tolerance B/op or ns/op regressions vs its current section")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional B/op and ns/op regression in -gate mode")
	flag.Parse()

	var parsed []Bench
	if args := flag.Args(); len(args) == 0 {
		parsed = parse(os.Stdin)
	} else {
		for _, a := range args {
			f, err := os.Open(a)
			if err != nil {
				log.Fatal(err)
			}
			parsed = append(parsed, parse(f)...)
			f.Close()
		}
	}
	if len(parsed) == 0 {
		log.Fatal("benchjson: no benchmark lines in input")
	}

	if *gateFile != "" {
		if !gate(os.Stdout, *gateFile, parsed, *tolerance) {
			os.Exit(1)
		}
		return
	}

	var rep Report
	if *merge != "" {
		if b, err := os.ReadFile(*merge); err == nil {
			var prev Report
			if err := json.Unmarshal(b, &prev); err != nil {
				log.Fatalf("benchjson: %s: %v", *merge, err)
			}
			rep.Baseline = prev.Baseline
			rep.Note = prev.Note
		}
	}
	if *note != "" {
		rep.Note = *note
	}
	if *asBaseline {
		rep.Baseline = parsed
	} else {
		rep.Current = parsed
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks -> %s\n", len(parsed), *out)
}

// gate compares fresh results against the committed report's current section
// and prints a per-benchmark comparison table. It returns false — failing CI
// — when any benchmark present on both sides allocated more often per op than
// the committed number, or regressed its B/op or its ns/op by more than
// tolerance. allocs/op is a count and exact. B/op is an average that includes
// the buffers a pool re-makes after the collector emptied it — one 2 MiB
// progressive read over the 1300 iterations of a loopback 1 MiB pair is
// 1.6 KiB/op, one 16 MiB frame buffer over 440 iterations 38 KiB/op at
// 0 allocs/op — so it is judged only on benchmarks that allocate every
// iteration, and there a rise of up to bytesSlack beyond the tolerance is
// forgiven: what it is there to catch is the allocation that keeps its count
// and changes its size, a 1 MiB copy where a header was. Noise on timings
// below a microsecond is forgiven: such benchmarks are not gated on ns/op,
// since a shared CI runner cannot time them reliably.
func gate(w io.Writer, file string, fresh []Bench, tolerance float64) bool {
	b, err := os.ReadFile(file)
	if err != nil {
		log.Fatalf("benchjson: -gate: %v", err)
	}
	var committed Report
	if err := json.Unmarshal(b, &committed); err != nil {
		log.Fatalf("benchjson: %s: %v", file, err)
	}
	base := make(map[string]Bench, len(committed.Current))
	for _, c := range committed.Current {
		base[c.Pkg+" "+c.Name] = c
	}
	const minGatedNs = 1000.0
	const bytesSlack = 16 << 10
	pass := true
	fmt.Fprintf(w, "%-40s %14s %14s %8s %s\n", "benchmark", "committed", "fresh", "Δns/op", "verdict")
	for _, f := range fresh {
		c, ok := base[f.Pkg+" "+f.Name]
		if !ok {
			fmt.Fprintf(w, "%-40s %14s %14.1f %8s %s\n", f.Name, "—", f.NsOp, "—", "new (not gated)")
			continue
		}
		delete(base, f.Pkg+" "+f.Name)
		ratio := 0.0
		if c.NsOp > 0 {
			ratio = f.NsOp/c.NsOp - 1
		}
		verdict := "ok"
		switch {
		case f.AllocsOp > c.AllocsOp:
			verdict = fmt.Sprintf("FAIL: allocs/op %d -> %d", c.AllocsOp, f.AllocsOp)
			pass = false
		case c.AllocsOp > 0 && float64(f.BOp) > float64(c.BOp)*(1+tolerance)+bytesSlack:
			verdict = fmt.Sprintf("FAIL: B/op %d -> %d (> %.0f%%)", c.BOp, f.BOp, tolerance*100)
			pass = false
		case c.NsOp >= minGatedNs && ratio > tolerance:
			verdict = fmt.Sprintf("FAIL: ns/op regressed %.0f%% (> %.0f%%)", ratio*100, tolerance*100)
			pass = false
		case c.NsOp < minGatedNs:
			verdict = "ok (sub-µs: allocs only)"
		}
		fmt.Fprintf(w, "%-40s %14.1f %14.1f %+7.0f%% %s\n", f.Name, c.NsOp, f.NsOp, ratio*100, verdict)
	}
	for key := range base {
		fmt.Fprintf(w, "%-40s missing from fresh run (not gated)\n", key)
	}
	if pass {
		fmt.Fprintln(w, "benchjson: gate passed")
	} else {
		fmt.Fprintln(w, "benchjson: gate FAILED")
	}
	return pass
}

// parse extracts benchmark result lines from `go test -bench` output,
// tracking the current package from "pkg:" header lines.
func parse(r io.Reader) []Bench {
	var out []Bench
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// BenchmarkName-8  N  12.3 ns/op  [456 MB/s]  7 B/op  8 allocs/op
		if len(fields) < 4 {
			continue
		}
		b := Bench{Pkg: pkg}
		b.Name = strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(b.Name, '-'); i > 0 {
			b.Name = b.Name[:i]
		}
		ok := false
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsOp, ok = v, true
			case "B/op":
				b.BOp = int64(v)
			case "allocs/op":
				b.AllocsOp = int64(v)
			}
		}
		if ok {
			out = append(out, b)
		}
	}
	return out
}
