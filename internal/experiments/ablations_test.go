package experiments

import (
	"testing"
	"time"
)

// sweepByWorkload groups RTT sweep points per workload, preserving order.
func sweepByWorkload(rs []RTTResult) map[string][]RTTResult {
	out := make(map[string][]RTTResult)
	for _, r := range rs {
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out
}

// TestRTTSweepAsyncBeatsBatching is the acceptance criterion of the
// pipelined lane: at round trips of 500µs and above, one-way submission
// strictly beats batching alone, for every swept workload.
func TestRTTSweepAsyncBeatsBatching(t *testing.T) {
	rs := RTTSweep(1)
	for wl, pts := range sweepByWorkload(rs) {
		for _, r := range pts {
			if r.DGSFAsync <= 0 {
				t.Fatalf("%s: missing async measurement at %v", wl, r.RTT)
			}
			if r.RTT >= 500*time.Microsecond && r.DGSFAsync >= r.DGSF {
				t.Errorf("%s: at %v RTT, async (%v) not strictly below batching (%v)",
					wl, r.RTT, r.DGSFAsync, r.DGSF)
			}
		}
	}
}

// TestRTTSweepDeterministic checks that the pipelined lane preserves the
// simulation's determinism: the same seed reproduces identical virtual
// times, async tier included.
func TestRTTSweepDeterministic(t *testing.T) {
	a, b := RTTSweep(1), RTTSweep(1)
	if len(a) != len(b) {
		t.Fatalf("sweep lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
}
