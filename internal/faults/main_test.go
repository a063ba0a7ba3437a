package faults

import (
	"fmt"
	"os"
	"testing"

	"dgsf/internal/remoting/wire"
)

// TestMain runs the whole suite — severed and partitioned connections,
// corrupted frames, stalls, crashed servers — with the wire payload pool in
// checking mode: a payload returned to the pool is poisoned and never reused,
// so a fault path that reads a message its consumer has already returned
// fails the test that drives it, and one that returns a message twice fails
// the run here.
func TestMain(m *testing.M) {
	wire.CheckPool(true)
	code := m.Run()
	if n := wire.CheckPool(false); n != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d payload buffers were returned to the wire pool twice\n", n)
		code = 1
	}
	os.Exit(code)
}
