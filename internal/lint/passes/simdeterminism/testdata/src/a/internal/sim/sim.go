// Package sim is a miniature stand-in for dgsf/internal/sim: the analyzer
// keys on the "internal/sim" path suffix, not on the real package.
package sim

// Proc mimics a simulated process.
type Proc struct {
	name string
}

// Now returns the virtual clock.
func (p *Proc) Now() int64 { return 0 }

// Name returns the proc name.
func (p *Proc) Name() string { return p.name }

// Engine mimics the simulation engine.
type Engine struct{}

// At mimics arming a callback at a virtual instant.
func (e *Engine) At(at int64, fn func()) {}
