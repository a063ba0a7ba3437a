// Package metrics provides the statistics helpers the experiment harness
// uses to report results the way the paper does: means with standard
// deviations (§VIII-D reports "the average, standard deviation and the sum"
// of queueing and execution delays).
package metrics

import (
	"math"
	"time"
)

// Series accumulates duration observations.
type Series struct {
	vals []time.Duration
}

// Add appends one observation.
func (s *Series) Add(d time.Duration) { s.vals = append(s.vals, d) }

// N returns the number of observations.
func (s *Series) N() int { return len(s.vals) }

// Mean returns the arithmetic mean (0 for an empty series).
func (s *Series) Mean() time.Duration {
	if len(s.vals) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range s.vals {
		sum += v
	}
	return sum / time.Duration(len(s.vals))
}

// Std returns the population standard deviation.
func (s *Series) Std() time.Duration {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	mean := float64(s.Mean())
	var acc float64
	for _, v := range s.vals {
		d := float64(v) - mean
		acc += d * d
	}
	return time.Duration(math.Sqrt(acc / float64(n)))
}

// Max returns the largest observation.
func (s *Series) Max() time.Duration {
	var max time.Duration
	for _, v := range s.vals {
		if v > max {
			max = v
		}
	}
	return max
}
