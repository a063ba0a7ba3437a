package metrics

import (
	"fmt"
	"strings"
)

// Counter is a monotonically increasing count. Like all sim-side state it is
// mutated only from simulated processes (serialized by the engine), so it
// needs no internal locking.
type Counter struct {
	name string
	n    int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta (negative deltas panic: counters only go up).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: negative counter delta")
	}
	c.n += delta
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is an instantaneous value that can move in both directions.
type Gauge struct {
	name string
	v    int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v = v }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) { g.v += delta }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// Registry holds named counters and gauges and renders them in registration
// order, so its output is deterministic under a fixed seed by construction
// (no map iteration).
type Registry struct {
	counters []*Counter
	gauges   []*Gauge
	byName   map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]any)}
}

// Counter returns the counter registered under name, creating it on first
// use. Registering a name already held by a gauge panics.
func (r *Registry) Counter(name string) *Counter {
	if v, ok := r.byName[name]; ok {
		c, ok := v.(*Counter)
		if !ok {
			panic(fmt.Sprintf("metrics: %q registered as a gauge", name))
		}
		return c
	}
	c := &Counter{name: name}
	r.byName[name] = c
	r.counters = append(r.counters, c)
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Registering a name already held by a counter panics.
func (r *Registry) Gauge(name string) *Gauge {
	if v, ok := r.byName[name]; ok {
		g, ok := v.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("metrics: %q registered as a counter", name))
		}
		return g
	}
	g := &Gauge{name: name}
	r.byName[name] = g
	r.gauges = append(r.gauges, g)
	return g
}

// Get returns the current value of a registered name (0 if absent), so tests
// can assert on metrics without holding handles.
func (r *Registry) Get(name string) int64 {
	switch v := r.byName[name].(type) {
	case *Counter:
		return v.Value()
	case *Gauge:
		return v.Value()
	}
	return 0
}

// String renders every metric, one "name value" line per metric, counters
// first then gauges, each in registration order.
func (r *Registry) String() string {
	var b strings.Builder
	for _, c := range r.counters {
		fmt.Fprintf(&b, "%s %d\n", c.name, c.n)
	}
	for _, g := range r.gauges {
		fmt.Fprintf(&b, "%s %d\n", g.name, g.v)
	}
	return b.String()
}
