package modelcache

import (
	"math/rand"
	"testing"
)

func TestLRUEvictionRespectsBudget(t *testing.T) {
	l := NewLRU(100)
	l.Put(Key{Name: "a"}, 40)
	l.Put(Key{Name: "b"}, 40)
	if l.Used() != 80 || l.Len() != 2 {
		t.Fatalf("used=%d len=%d after two inserts", l.Used(), l.Len())
	}
	// Touch a so b becomes the LRU victim.
	if _, ok := l.Get(Key{Name: "a"}); !ok {
		t.Fatal("a missing")
	}
	evicted, ok := l.Put(Key{Name: "c"}, 50)
	if !ok {
		t.Fatal("c rejected")
	}
	if len(evicted) != 1 || evicted[0].Key.Name != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if l.Used() != 90 || l.Used() > l.Budget() {
		t.Fatalf("used=%d exceeds budget", l.Used())
	}
	if !l.Peek(Key{Name: "a"}) || l.Peek(Key{Name: "b"}) || !l.Peek(Key{Name: "c"}) {
		t.Fatal("wrong residents after eviction")
	}
}

func TestLRURejectsOversizedEntry(t *testing.T) {
	l := NewLRU(100)
	l.Put(Key{Name: "a"}, 60)
	if _, ok := l.Put(Key{Name: "big"}, 101); ok {
		t.Fatal("oversized entry admitted")
	}
	if !l.Peek(Key{Name: "a"}) || l.Peek(Key{Name: "big"}) || l.Used() != 60 {
		t.Fatal("rejected insert changed the residents")
	}
}

func TestLRURefreshAdjustsBytes(t *testing.T) {
	l := NewLRU(100)
	l.Put(Key{Name: "a"}, 40)
	l.Put(Key{Name: "a"}, 70) // same key, new size
	if l.Used() != 70 || l.Len() != 1 {
		t.Fatalf("used=%d len=%d after refresh", l.Used(), l.Len())
	}
	l.Remove(Key{Name: "a"})
	if l.Used() != 0 || l.Len() != 0 {
		t.Fatalf("used=%d len=%d after remove", l.Used(), l.Len())
	}
}

func TestLRUCountersExact(t *testing.T) {
	l := NewLRU(100)
	l.Put(Key{Name: "a"}, 60)               // insert
	evicted, _ := l.Put(Key{Name: "b"}, 60) // insert, evicts a
	l.Get(Key{Name: "a"})                   // miss
	l.Get(Key{Name: "b"})                   // hit
	l.Get(Key{Name: "b"})                   // hit
	l.Put(Key{Name: "x"}, 200)              // reject
	if len(evicted) != 1 || evicted[0].Key.Name != "a" || evicted[0].Bytes != 60 {
		t.Fatalf("evicted = %+v, want a's 60 bytes", evicted)
	}
	st := l.Stats()
	want := CacheStats{Hits: 2, Misses: 1, Evictions: 1}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

func TestManagerPinBudgetPerGPU(t *testing.T) {
	m := NewManager(Config{Enable: true, DeviceBudget: 100})
	if !m.Pin(0, 0, "fnA", 60) {
		t.Fatal("first pin rejected")
	}
	if m.Pin(1, 0, "fnB", 60) {
		t.Fatal("pin over GPU 0's budget admitted")
	}
	if !m.Pin(1, 1, "fnB", 60) {
		t.Fatal("pin on empty GPU 1 rejected")
	}
	if m.Pin(0, 1, "fnC", 10) {
		t.Fatal("second pin on one server admitted")
	}
	if m.PinnedBytes(0) != 60 || m.PinnedBytes(1) != 60 {
		t.Fatalf("pinned bytes = %d/%d", m.PinnedBytes(0), m.PinnedBytes(1))
	}
	m.UpdatePinGPU(0, 1)
	if m.PinnedBytes(0) != 0 || m.PinnedBytes(1) != 120 {
		t.Fatalf("after migrate: pinned bytes = %d/%d", m.PinnedBytes(0), m.PinnedBytes(1))
	}
	m.Unpin(0)
	if m.PinnedBytes(1) != 60 {
		t.Fatalf("after unpin: pinned = %d", m.PinnedBytes(1))
	}
	st := m.Stats()
	if st.Pins != 2 {
		t.Fatalf("pins=%d, want 2", st.Pins)
	}
}

func TestManagerOldestPinAndLookup(t *testing.T) {
	m := NewManager(Config{Enable: true, DeviceBudget: 1 << 30})
	m.Pin(2, 0, "fnA", 10)
	m.Pin(0, 1, "fnB", 10)
	m.Pin(1, 1, "fnC", 10)
	if id, ok := m.OldestPin(nil); !ok || id != 2 {
		t.Fatalf("oldest = %d, want 2", id)
	}
	// With server 2 ineligible (leased), the next-oldest wins.
	if id, ok := m.OldestPin(func(sid int) bool { return sid != 2 }); !ok || id != 0 {
		t.Fatalf("oldest eligible = %d, want 0", id)
	}
	if fn, bytes, ok := m.PinnedFn(1); !ok || fn != "fnC" || bytes != 10 {
		t.Fatalf("PinnedFn(1) = %s/%d/%v", fn, bytes, ok)
	}
	if !m.HasModel("fnB") || m.HasModel("fnZ") {
		t.Fatal("HasModel wrong over pins")
	}
	m.Host().Put(StateKey("fnZ"), 10)
	if !m.HasModel("fnZ") {
		t.Fatal("HasModel misses host-staged state")
	}
}

func TestManagerAttachCounters(t *testing.T) {
	m := NewManager(Config{Enable: true})
	m.NoteAttach(TierDevice)
	m.NoteAttach(TierDevice)
	m.NoteAttach(TierHost)
	m.NoteAttach(TierMiss)
	st := m.Stats()
	if st.DeviceHits != 2 || st.HostHits != 1 || st.Misses != 1 || st.Attaches() != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
	if got := st.DeviceHitRate(); got != 0.5 {
		t.Fatalf("device hit rate = %v, want 0.5", got)
	}
}

// runScripted drives an LRU with a seeded random access pattern and returns
// a trace of observable state, to prove behavior depends only on the call
// sequence.
func runScripted(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	l := NewLRU(1000)
	var trace []int64
	var bytesEvicted int64
	for i := 0; i < 500; i++ {
		k := Key{Name: string(rune('a' + rng.Intn(20)))}
		if rng.Intn(2) == 0 {
			evicted, _ := l.Put(k, int64(rng.Intn(300)))
			for _, v := range evicted {
				bytesEvicted += v.Bytes
			}
		} else {
			l.Get(k)
		}
		trace = append(trace, l.Used(), int64(l.Len()))
	}
	st := l.Stats()
	return append(trace, int64(st.Hits), int64(st.Misses), int64(st.Evictions), bytesEvicted)
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, b := runScripted(7), runScripted(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if c := runScripted(8); len(c) != len(a) {
		t.Fatalf("trace length changed with seed")
	}
}

func TestStateKeyDistinct(t *testing.T) {
	a, b := StateKey("nlp"), StateKey("resnet")
	if a == b || a.FP == b.FP {
		t.Fatal("state keys collide")
	}
	if a != StateKey("nlp") {
		t.Fatal("state key not stable")
	}
}
