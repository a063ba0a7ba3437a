package cuda_test

import (
	"errors"
	"fmt"
	"testing"

	"dgsf/internal/cuda"
	"dgsf/internal/dataplane"
	"dgsf/internal/gpuserver"
	"dgsf/internal/remoting"
	"dgsf/internal/store"
)

// The generated remoting stubs carry errors as numeric status codes:
// cuda.Code on the server side, cuda.FromCode on the client side. These
// tests pin the contract that every registered typed sentinel survives the
// round trip with errors.Is intact — the property guest recovery, chain
// fallback, and admission shedding all dispatch on.

func TestWireSentinelRegistryRoundTrip(t *testing.T) {
	sentinels := cuda.WireSentinels()
	if len(sentinels) == 0 {
		t.Fatal("no wire sentinels registered")
	}
	for _, want := range sentinels {
		c := cuda.Code(want)
		if c < 9000 {
			t.Errorf("sentinel %v got code %d below the reserved base", want, c)
		}
		got := cuda.FromCode(c)
		if !errors.Is(got, want) {
			t.Errorf("errors.Is broken across the wire for %v (code %d, decoded %v)", want, c, got)
		}
		// Servers surface sentinels wrapped in context; the code must still
		// be found through the chain.
		if wc := cuda.Code(fmt.Errorf("server ctx: %w", want)); wc != c {
			t.Errorf("wrapped %v encodes as %d, bare as %d", want, wc, c)
		}
	}
}

// TestWireSentinelAssignments pins each project sentinel to its reserved
// code, so an accidental renumbering (which would desynchronize old clients
// from new servers) fails loudly.
func TestWireSentinelAssignments(t *testing.T) {
	for _, tc := range []struct {
		code int
		err  error
	}{
		{9001, remoting.ErrConnClosed},
		{9002, remoting.ErrFrameCorrupt},
		{9003, remoting.ErrCallTimeout},
		{9004, remoting.ErrFabricFault},
		{9010, dataplane.ErrHandoffLost},
		{9020, gpuserver.ErrCapacity},
		{9030, store.ErrConflict},
		{9031, store.ErrNotFound},
		{9032, store.ErrExists},
		{9033, store.ErrBadRequest},
		{9034, store.ErrHalted},
	} {
		if got := cuda.Code(tc.err); got != tc.code {
			t.Errorf("Code(%v) = %d, want %d", tc.err, got, tc.code)
		}
		if got := cuda.FromCode(tc.code); !errors.Is(got, tc.err) {
			t.Errorf("FromCode(%d) = %v, want %v", tc.code, got, tc.err)
		}
	}
}

func TestCUDAStatusRoundTrip(t *testing.T) {
	for _, e := range []cuda.Error{
		cuda.ErrInvalidValue, cuda.ErrMemoryAllocation, cuda.ErrInvalidDevice,
		cuda.ErrNotInitialized, cuda.ErrContextDestroyed,
	} {
		c := cuda.Code(e)
		if c != int(e) {
			t.Errorf("Code(%v) = %d, want the raw status %d", e, c, int(e))
		}
		if got := cuda.FromCode(c); !errors.Is(got, e) {
			t.Errorf("FromCode(%d) = %v, want %v", c, got, e)
		}
	}
	if cuda.Code(nil) != 0 || cuda.FromCode(0) != nil {
		t.Error("nil must map to status 0 and back")
	}
	if cuda.Code(errors.New("untyped")) != -1 {
		t.Error("unclassifiable errors must encode as -1")
	}
}
