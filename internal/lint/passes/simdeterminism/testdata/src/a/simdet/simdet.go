package simdet

import (
	"math/rand"
	"sort"
	"time"

	"a/internal/sim"
)

func emit(p *sim.Proc, k int) {}

// The headline case, planted in the GPU-server agent's relist: the staged
// models that vanished are collected in map order and evicted in that order,
// so the store deletes, and every watcher's events, follow the map. No
// tier-1 test, golden or chaos campaign tells the runs apart.
func evictGone(p *sim.Proc, was, now map[string]bool) {
	var gone []string
	for object := range was {
		if !now[object] {
			gone = append(gone, object) // want "appends to gone, which the function never sorts"
		}
	}
	for _, object := range gone {
		emit(p, len(object))
	}
}

func bad(p *sim.Proc, m map[int]string) {
	_ = time.Now()                     // want "time.Now reads the real clock"
	time.Sleep(1)                      // want "time.Sleep reads the real clock"
	_ = rand.Intn(4)                   // want "global RNG"
	rand.Shuffle(2, func(i, j int) {}) // want "global RNG"
	for k := range m {                 // want "map iteration order is randomized"
		emit(p, k)
	}
	r := rand.New(rand.NewSource(1))
	sum := 0
	for k := range m { // want "draws from an RNG"
		sum += k + r.Intn(4) // seeded, but draw order follows map order
	}
	_ = sum
}

// Callbacks due at one instant fire in the order they were armed, so arming
// them in map order schedules the simulation in map order.
func armsInMapOrder(e *sim.Engine, m map[int64]func()) {
	for at, fn := range m { // want "map iteration order is randomized"
		e.At(at, fn)
	}
}

func good(p *sim.Proc, m map[int]string) {
	r := rand.New(rand.NewSource(1)) // explicitly-seeded constructors are the sanctioned pattern
	_ = r.Intn(4)
	_ = p.Now()
	_ = time.Duration(3) * time.Second // duration arithmetic never reads the clock

	total := 0
	for k := range m { // no simulated event in the body: order is invisible
		total += k
	}
	_ = total

	keys := make([]int, 0, len(m))
	for k := range m { // collecting keys for sorting is exactly the fix
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		emit(p, k)
	}

	//lint:allow simdeterminism exercising the escape hatch
	_ = time.Now()
}

type holder struct{ picked []int }

// The order leak: nothing in these loops touches the simulator, but the slice
// carries map order out of them.
func leaks(m map[int]string, h *holder) []int {
	var out []int
	for k := range m {
		out = append(out, k) // want "appends to out, which the function never sorts"
	}
	for k := range m {
		if k > 0 {
			h.picked = append(h.picked, k) // want "appends to picked, which the function never sorts"
		}
	}
	return out
}

func sortedAfterwards(m map[int]string, h *holder) []string {
	var names []string
	for _, v := range m {
		names = append(names, v)
	}
	for k := range m {
		h.picked = append(h.picked, k)
	}
	sort.Slice(h.picked, func(i, j int) bool { return h.picked[i] < h.picked[j] })
	sort.Strings(names)
	return names
}

func localToTheLoop(m map[int][]int) int {
	n := 0
	for _, vs := range m {
		var doubled []int // dies with the iteration: its order reaches nobody
		for _, v := range vs {
			doubled = append(doubled, 2*v)
		}
		n += len(doubled)
	}
	return n
}
