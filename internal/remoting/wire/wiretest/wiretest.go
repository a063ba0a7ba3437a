// Package wiretest is the test-side switch of the wire payload pool's
// use-after-return oracle.
package wiretest

import (
	"testing"

	"dgsf/internal/remoting/wire"
)

// CheckPool runs the rest of the test (and its subtests) with the payload
// pool in checking mode: every buffer returned to it is overwritten with
// 0xDB and never handed out again, so code that reads a payload after its
// consumer returned it decodes garbage and fails whatever the test asserts,
// and the test fails if any buffer was returned twice. The mode is
// process-wide: not for parallel tests, nor for tests that count allocations.
func CheckPool(t testing.TB) {
	t.Helper()
	wire.CheckPool(true)
	t.Cleanup(func() {
		if n := wire.CheckPool(false); n != 0 {
			t.Errorf("%d payload buffers were returned to the pool twice", n)
		}
	})
}
