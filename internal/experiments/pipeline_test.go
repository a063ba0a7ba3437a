package experiments

import (
	"strings"
	"testing"

	"dgsf/internal/chaos"
	"dgsf/internal/dataplane"
)

// TestPipelineAcceptance asserts the experiment's headline claims on seed 1
// (CI runs the binary across seeds 1, 2, 3 and 7): GPU-side handoff strictly
// beats the bounce for same-server chains, peer copies beat the bounce at
// every RTT, and an N-way fan-out costs exactly one host-staged model read.
func TestPipelineAcceptance(t *testing.T) {
	r := RunPipeline(1)
	t.Logf("same-server: handoff %v bounce %v (bypass %d)", r.SameHandoff, r.SameBounce, r.BypassHits)

	if r.SameHandoff >= r.SameBounce {
		t.Errorf("same-server handoff %v not below bounce %v", r.SameHandoff, r.SameBounce)
	}
	if r.BypassHits == 0 {
		t.Error("same-server chains recorded no bypass hits")
	}
	if r.Fallbacks != 0 {
		t.Errorf("healthy run recorded %d fallbacks", r.Fallbacks)
	}
	for _, ctr := range []string{dataplane.CtrExports, dataplane.CtrImports} {
		if !strings.Contains(r.MetricsTable, ctr+" ") || strings.Contains(r.MetricsTable, ctr+" 0\n") {
			t.Errorf("data plane unused: %s is zero in\n%s", ctr, r.MetricsTable)
		}
	}

	if len(r.Cross) == 0 {
		t.Fatal("no cross-server points")
	}
	for _, pt := range r.Cross {
		t.Logf("cross-server rtt %v: peer %v bounce %v (copies %d)", pt.RTT, pt.Peer, pt.Bounce, pt.PeerCopies)
		if pt.Peer >= pt.Bounce {
			t.Errorf("rtt %v: peer copy %v not below bounce %v", pt.RTT, pt.Peer, pt.Bounce)
		}
		if pt.PeerCopies == 0 {
			t.Errorf("rtt %v: no peer copies recorded", pt.RTT)
		}
	}

	t.Logf("fan-out %d: broadcast %v baseline %v (loads %d clones %d)",
		r.FanOut, r.BroadcastE2E, r.BaselineE2E, r.BroadcastLoads, r.BroadcastClones)
	if r.BroadcastLoads != 1 {
		t.Errorf("broadcast loads = %d, want exactly 1 host-staged read", r.BroadcastLoads)
	}
	if r.BroadcastClones != int64(r.FanOut-1) {
		t.Errorf("broadcast clones = %d, want %d", r.BroadcastClones, r.FanOut-1)
	}
	if r.BroadcastE2E >= r.BaselineE2E {
		t.Errorf("broadcast burst %v not below baseline %v", r.BroadcastE2E, r.BaselineE2E)
	}
}

// TestPipelineFaultScenario asserts the crash-mid-handoff scenario completes
// every chain with at least one host-bounce fallback, zero failures and no
// violation of the chaos oracles.
func TestPipelineFaultScenario(t *testing.T) {
	for _, sc := range faultsScenarios {
		if sc.schedule.Workload != chaos.WorkloadPipeline {
			continue
		}
		r := runScenario(1, sc.name, sc.schedule)
		t.Logf("%s: invs=%d gpu=%d fallback=%d recovered=%d",
			r.Scenario, r.Invocations, r.GPUChains, r.Fallbacks, r.Recovered)
		// A failed chain is a chain-conservation violation.
		for _, v := range r.Violations {
			t.Errorf("%s: violation [%s] %s", r.Scenario, v.Check, v.Detail)
		}
		if r.Fallbacks == 0 {
			t.Errorf("%s: no fallback recorded; the injected crash missed the handoff window", r.Scenario)
		}
		if r.GPUChains == 0 {
			t.Errorf("%s: no chain completed over the GPU path", r.Scenario)
		}
		if r.FailedGS != 1 {
			t.Errorf("%s: injector failed %d GPU servers, want 1", r.Scenario, r.FailedGS)
		}
	}
}
