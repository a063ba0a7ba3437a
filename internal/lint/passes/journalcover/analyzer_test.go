package journalcover_test

import (
	"testing"

	"dgsf/internal/lint/linttest"
	"dgsf/internal/lint/passes/journalcover"
	"dgsf/internal/remoting/gen"
)

func TestJournalcover(t *testing.T) {
	old := journalcover.Required
	journalcover.Required = map[string]bool{
		"Malloc":       true,
		"StreamCreate": true,
		"MemcpyH2D":    true,
		"DnnSetStream": true,
		"MemWrite":     true,
	}
	defer func() { journalcover.Required = old }()
	linttest.Run(t, "testdata", journalcover.Analyzer, "c/internal/guest")
}

// TestDefaultTableIsGenerated pins the analyzer to apigen's single source
// of truth.
func TestDefaultTableIsGenerated(t *testing.T) {
	if len(journalcover.Required) == 0 {
		t.Fatal("default Required table is empty")
	}
	for name := range journalcover.Required {
		if !gen.StateEstablishingCalls[name] {
			t.Errorf("analyzer table has %s but gen.StateEstablishingCalls does not", name)
		}
	}
}
