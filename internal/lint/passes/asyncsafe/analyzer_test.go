package asyncsafe_test

import (
	"testing"

	"dgsf/internal/lint/linttest"
	"dgsf/internal/lint/passes/asyncsafe"
	"dgsf/internal/remoting/gen"
)

func TestAsyncsafe(t *testing.T) {
	old := asyncsafe.ResultFree
	asyncsafe.ResultFree = map[string]bool{"Good": true, "Other": true}
	defer func() { asyncsafe.ResultFree = old }()
	linttest.Run(t, "testdata", asyncsafe.Analyzer, "a/async")
}

// TestDefaultTableIsGenerated pins the analyzer to apigen's single source
// of truth: the default table is exactly the generated deferrable set plus
// the batchable class — Free is the one call only the class admits.
func TestDefaultTableIsGenerated(t *testing.T) {
	for name := range gen.DeferrableCalls {
		if !asyncsafe.ResultFree[name] {
			t.Errorf("gen.DeferrableCalls has %s but the analyzer table does not", name)
		}
	}
	for name := range asyncsafe.ResultFree {
		if !gen.DeferrableCalls[name] && name != "Free" {
			t.Errorf("analyzer table has %s, which is neither deferrable nor Free", name)
		}
	}
	if !asyncsafe.ResultFree["Free"] || asyncsafe.ResultFree["Malloc"] {
		t.Errorf("analyzer table: Free %v (want true), Malloc %v (want false)", asyncsafe.ResultFree["Free"], asyncsafe.ResultFree["Malloc"])
	}
}
