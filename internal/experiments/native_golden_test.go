package experiments

import (
	"fmt"
	"hash/fnv"
	"testing"

	"dgsf/internal/workloads"
)

// nativeArmGolden is the FNV-1a hash of every exact-nanosecond number the
// native arm produces: the phases of RunSingle(seed, spec, ModeNative) for the
// six workloads and Table V's native column, at seeds 1 2 3 7. It was captured
// at d60561e, while the native arm still had a gen.API implementation of its
// own. Do not re-capture it to make a refactor pass: a moved hash means a
// native phase moved.
const nativeArmGolden = 0x3a888096262a5bac

func TestNativeArmGolden(t *testing.T) {
	h := fnv.New64a()
	for _, seed := range []int64{1, 2, 3, 7} {
		for _, spec := range workloads.All() {
			ph := RunSingle(seed, spec, ModeNative, false).Phases
			fmt.Fprintf(h, "seed=%d %s download=%d init=%d load=%d process=%d\n",
				seed, spec.Name, ph.Download, ph.Init, ph.Load, ph.Process)
		}
		for _, row := range Table5(seed, 3) {
			fmt.Fprintf(h, "seed=%d table5 %dMB native=%d\n", seed, row.ArrayMB, row.NativeE2E)
		}
	}
	if got := h.Sum64(); got != nativeArmGolden {
		t.Errorf("native arm hash %#x, want %#x", got, uint64(nativeArmGolden))
	}
}
