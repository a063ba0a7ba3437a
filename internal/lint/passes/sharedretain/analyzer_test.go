package sharedretain_test

import (
	"testing"

	"dgsf/internal/lint/linttest"
	"dgsf/internal/lint/passes/sharedretain"
	"dgsf/internal/remoting/gen"
)

func TestSharedretain(t *testing.T) {
	linttest.Run(t, "testdata", sharedretain.Analyzer, "f/sharedt")
}

// TestGuestSideParamsAreTheApplications: the guest library's API parameters
// are not shared-decoded, whatever their names; shared decodes inside it are.
func TestGuestSideParamsAreTheApplications(t *testing.T) {
	linttest.Run(t, "testdata", sharedretain.Analyzer, "f/internal/guest")
}

// TestDefaultTablesAreGenerated pins the analyzer to apigen's generated
// shared-decode contract tables, not a hand-maintained copy.
func TestDefaultTablesAreGenerated(t *testing.T) {
	for _, m := range []string{"StrShared", "StrsShared", "LaunchShared", "DevPtrsShared", "BytesShared", "DecodeShared"} {
		if !sharedretain.SharedMethods[m] {
			t.Errorf("SharedMethods is missing %s", m)
		}
	}
	for _, call := range []string{"RegisterKernels", "LaunchKernel", "DnnForward", "BlasGemm", "MemWrite"} {
		if len(sharedretain.SharedParams[call]) == 0 {
			t.Errorf("SharedParams is missing %s", call)
		}
		if len(sharedretain.SharedParams[call]) != len(gen.SharedDecodeParams[call]) {
			t.Errorf("SharedParams[%s] diverges from gen.SharedDecodeParams", call)
		}
	}
	// The one parameter a transport may hand over is a shared one: owned is
	// an exemption from the borrowed default, never a second list.
	if sharedretain.OwnedClaim != gen.OwnedBulkClaim || len(sharedretain.OwnedParams) != len(gen.OwnedBulkParams) {
		t.Error("the owned-bulk tables diverge from the generated ones")
	}
	for call, op := range sharedretain.OwnedParams {
		found := false
		for _, sp := range sharedretain.SharedParams[call] {
			found = found || sp == op
		}
		if !found {
			t.Errorf("OwnedParams[%s] = %+v is not among the call's shared parameters", call, op)
		}
	}
}
