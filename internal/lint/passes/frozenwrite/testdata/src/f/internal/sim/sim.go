// Package sim mirrors the scheduler types the analyzer's fixtures need.
package sim

// Proc is the simulated process handle.
type Proc struct {
	ID int
}
