// Package passes registers the dgsfvet analyzer suite.
package passes

import (
	"dgsf/internal/lint"
	"dgsf/internal/lint/passes/asyncsafe"
	"dgsf/internal/lint/passes/errsentinel"
	"dgsf/internal/lint/passes/frozenwrite"
	"dgsf/internal/lint/passes/goroutineleak"
	"dgsf/internal/lint/passes/lockorder"
	"dgsf/internal/lint/passes/rawconn"
	"dgsf/internal/lint/passes/simdeterminism"
)

// All returns the full dgsfvet analyzer suite in reporting order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		simdeterminism.Analyzer,
		errsentinel.Analyzer,
		rawconn.Analyzer,
		asyncsafe.Analyzer,
		goroutineleak.Analyzer,
		frozenwrite.Analyzer,
		lockorder.Analyzer,
	}
}
