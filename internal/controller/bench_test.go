package controller

import (
	"fmt"
	"testing"

	"dgsf/internal/sim"
	"dgsf/internal/store"
)

// The controller layer's micro-benchmarks (ROADMAP item 1), published with
// the store's as BENCH_controlplane.json and gated in CI.

func benchKeys(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{Kind: store.KindSession, Name: fmt.Sprintf("s%04d", i)}
	}
	return keys
}

// BenchmarkWorkqueueAddGet is one key through the deduplicating queue.
func BenchmarkWorkqueueAddGet(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine(1)
	keys := benchKeys(1000)
	e.Run("bench", func(p *sim.Proc) {
		q := newWorkqueue(e)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Add(keys[i%len(keys)])
			if _, ok := q.Get(p); !ok {
				b.Error("queue closed")
				return
			}
		}
	})
}

// BenchmarkReconcileSettledKey is what a resync pays per key that needs
// nothing: enqueue, dequeue, and a reconcile that looks the object up in the
// cache and finds it settled. It must not allocate: a fleet's history of Done
// sessions goes through here every period.
func BenchmarkReconcileSettledKey(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine(1)
	keys := benchKeys(1000)
	settled := 0
	c := New(Options{Name: "bench", Kinds: []store.Kind{store.KindSession}},
		Func(func(p *sim.Proc, c *Cache, key Key) error {
			if s, _ := c.Get(key.Kind, key.Name).(*store.Session); s != nil && s.Terminal() {
				settled++
			}
			return nil
		}))
	rs := make([]store.Resource, len(keys))
	for i, k := range keys {
		s := newSession(k.Name)
		s.ObjectMeta.ResourceVersion = uint64(i + 1)
		s.Status.Phase = store.PhaseDone
		rs[i] = s
	}
	c.cache.replace(store.KindSession, rs, uint64(len(rs)))
	e.Run("bench", func(p *sim.Proc) {
		c.queue = newWorkqueue(e)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.queue.Add(keys[i%len(keys)])
			key, _ := c.queue.Get(p)
			if err := c.rec.Reconcile(p, c.cache, key); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if settled != b.N {
		b.Errorf("%d of %d reconciles found a settled session", settled, b.N)
	}
}
