package metrics

import "testing"

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	w := r.Counter("store_writes_total")
	w.Inc()
	w.Add(2)
	if got := w.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if r.Counter("store_writes_total") != w {
		t.Fatal("second Counter call returned a different instance")
	}
	g := r.Gauge("store_objects")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	if r.Get("store_writes_total") != 3 || r.Get("store_objects") != 7 {
		t.Fatalf("Get mismatch: %d %d", r.Get("store_writes_total"), r.Get("store_objects"))
	}
	if r.Get("absent") != 0 {
		t.Fatal("absent metric should read 0")
	}
}

func TestRegistryRenderOrderIsRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_first").Inc()
	r.Counter("aa_second").Add(2)
	r.Gauge("mm_gauge").Set(5)
	got := r.String()
	want := "zz_first 1\naa_second 2\nmm_gauge 5\n"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("Gauge on a counter name should panic")
		}
	}()
	r.Gauge("x")
}

func TestCounterNegativePanics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add should panic")
		}
	}()
	c.Add(-1)
}
