package lockorder_test

import (
	"testing"

	"dgsf/internal/lint/linttest"
	"dgsf/internal/lint/passes/lockorder"
)

func TestLockorder(t *testing.T) {
	linttest.Run(t, "testdata", lockorder.Analyzer, "g/lockt")
}

// TestRoundtripTableIsGenerated pins the roundtrip sink set to the
// transport's synchronous entry points.
func TestRoundtripTableIsGenerated(t *testing.T) {
	for _, name := range []string{"Roundtrip", "RoundtripTimeout", "RoundtripVec"} {
		if !lockorder.RoundtripCalls[name] {
			t.Errorf("RoundtripCalls is missing %s", name)
		}
	}
}
