package frozenwrite_test

import (
	"testing"

	"dgsf/internal/lint/linttest"
	"dgsf/internal/lint/passes/frozenwrite"
)

func TestFrozenwrite(t *testing.T) {
	linttest.Run(t, "testdata", frozenwrite.Analyzer, "f/frozent")
}
