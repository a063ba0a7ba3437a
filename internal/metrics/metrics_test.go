package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Std() != 0 || s.Max() != 0 {
		t.Fatal("empty series not all-zero")
	}
	for _, d := range []time.Duration{2 * time.Second, 4 * time.Second, 6 * time.Second} {
		s.Add(d)
	}
	if s.N() != 3 || s.Mean() != 4*time.Second || s.Max() != 6*time.Second {
		t.Fatalf("n=%d mean=%v max=%v", s.N(), s.Mean(), s.Max())
	}
	// Population std of {2,4,6}s = sqrt(8/3) s ≈ 1.633s.
	want := time.Duration(math.Sqrt(8.0/3.0) * float64(time.Second))
	if d := s.Std() - want; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("std = %v, want ~%v", s.Std(), want)
	}
}

// Property: mean lies within [min, max] and mean*n = sum within rounding.
func TestMeanBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Series
		var sum time.Duration
		min := time.Duration(raw[0]) * time.Microsecond
		for _, v := range raw {
			d := time.Duration(v) * time.Microsecond
			s.Add(d)
			sum += d
			if d < min {
				min = d
			}
		}
		m := s.Mean()
		if m < min || m > s.Max() {
			return false
		}
		diff := sum - m*time.Duration(s.N())
		if diff < 0 {
			diff = -diff
		}
		return diff < time.Duration(s.N())*time.Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
