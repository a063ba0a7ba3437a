package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
pkg: dgsf/internal/remoting
BenchmarkWriteFrame-8        	26374129	        53.7 ns/op	       0 B/op	       0 allocs/op
BenchmarkFrameWriteV2_1MiB-8 	21458456	        57.6 ns/op	18214899.75 MB/s	       0 B/op	       0 allocs/op
PASS
pkg: dgsf/internal/remoting/gen
BenchmarkClientMemWriteVec_1MiB-8 	22485824	        51.5 ns/op	       0 B/op	       0 allocs/op
`

func TestParse(t *testing.T) {
	got := parse(strings.NewReader(sampleOutput))
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(got))
	}
	if got[0].Name != "WriteFrame" || got[0].Pkg != "dgsf/internal/remoting" || got[0].NsOp != 53.7 {
		t.Fatalf("first bench = %+v", got[0])
	}
	if got[2].Pkg != "dgsf/internal/remoting/gen" {
		t.Fatalf("pkg tracking broken: %+v", got[2])
	}
}

func writeReport(t *testing.T, current []Bench) string {
	t.Helper()
	b, err := json.Marshal(Report{Current: current})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGateVerdicts(t *testing.T) {
	committed := []Bench{
		{Name: "Slow", Pkg: "p", NsOp: 100_000, AllocsOp: 0},
		{Name: "Tiny", Pkg: "p", NsOp: 50, AllocsOp: 1},
		{Name: "Bulk", Pkg: "p", NsOp: 100_000, BOp: 84, AllocsOp: 5},
	}
	cases := []struct {
		name  string
		fresh []Bench
		pass  bool
	}{
		{"unchanged", []Bench{{Name: "Slow", Pkg: "p", NsOp: 100_000}}, true},
		{"within_tolerance", []Bench{{Name: "Slow", Pkg: "p", NsOp: 115_000}}, true},
		{"ns_regression", []Bench{{Name: "Slow", Pkg: "p", NsOp: 130_000}}, false},
		{"improvement", []Bench{{Name: "Slow", Pkg: "p", NsOp: 40_000}}, true},
		{"alloc_regression", []Bench{{Name: "Slow", Pkg: "p", NsOp: 100_000, AllocsOp: 2}}, false},
		// Sub-microsecond benchmarks gate on allocs only: timing noise on a
		// 50 ns benchmark must not flake CI, an extra alloc still fails it.
		{"tiny_noise_forgiven", []Bench{{Name: "Tiny", Pkg: "p", NsOp: 90, AllocsOp: 1}}, true},
		{"tiny_alloc_caught", []Bench{{Name: "Tiny", Pkg: "p", NsOp: 50, AllocsOp: 3}}, false},
		// B/op is an average over pool misses too: it is judged where every
		// iteration allocates, beyond the tolerance plus a few misses' worth.
		// An allocation that keeps its count and grows past that fails, timing
		// and count unmoved.
		{"bytes_within_tolerance", []Bench{{Name: "Bulk", Pkg: "p", NsOp: 100_000, BOp: 97, AllocsOp: 5}}, true},
		{"bytes_pool_misses_forgiven", []Bench{{Name: "Bulk", Pkg: "p", NsOp: 100_000, BOp: 3267, AllocsOp: 5}}, true},
		{"bytes_regression", []Bench{{Name: "Bulk", Pkg: "p", NsOp: 100_000, BOp: 1 << 20, AllocsOp: 5}}, false},
		{"bytes_at_zero_allocs_not_gated", []Bench{{Name: "Slow", Pkg: "p", NsOp: 100_000, BOp: 38062}}, true},
		{"bytes_improvement", []Bench{{Name: "Bulk", Pkg: "p", NsOp: 100_000, BOp: 0, AllocsOp: 2}}, true},
		// A brand-new benchmark is reported but never fails the gate.
		{"new_bench_not_gated", []Bench{{Name: "Slow", Pkg: "p", NsOp: 100_000}, {Name: "Fresh", Pkg: "p", NsOp: 1}}, true},
		// Same name in a different package is a different series.
		{"pkg_scoped_match", []Bench{{Name: "Slow", Pkg: "other", NsOp: 900_000}}, true},
	}
	file := writeReport(t, committed)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if got := gate(&out, file, tc.fresh, 0.20); got != tc.pass {
				t.Fatalf("gate = %v, want %v\n%s", got, tc.pass, out.String())
			}
		})
	}
}
