// Package native builds the "Native" baseline of Table II over a local CUDA
// runtime: the API server's own handlers called in-process, without DGSF's
// serverless specializations (apiserver.Native).
package native

import (
	"dgsf/internal/apiserver"
	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
)

// New returns the native arm over rt, which must not be initialized yet.
func New(rt *cuda.Runtime, libCosts cudalibs.Costs) *apiserver.Native {
	return apiserver.NewNative(rt, libCosts)
}
