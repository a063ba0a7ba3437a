package experiments

import "testing"

// Figure 7 shape: during bursts, sharing raises average GPU utilization and
// completes the burst sooner (§VIII-D: 31.8% -> 37.1%, 220s -> 200s).
func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed-load experiment")
	}
	rs := Figure7(1)
	ns, sh := rs[0], rs[1]
	if sh.MeanUtil <= ns.MeanUtil {
		t.Errorf("sharing utilization (%.1f%%) not above no-sharing (%.1f%%)", sh.MeanUtil, ns.MeanUtil)
	}
	if sh.ProviderE2E >= ns.ProviderE2E {
		t.Errorf("sharing burst E2E (%v) not below no-sharing (%v)", sh.ProviderE2E, ns.ProviderE2E)
	}
	if len(ns.Series) != 4 || len(ns.Series[0]) == 0 {
		t.Errorf("missing utilization series")
	}
}
