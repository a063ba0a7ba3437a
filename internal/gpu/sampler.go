package gpu

import (
	"time"

	"dgsf/internal/sim"
)

// Sample is one utilization reading, as NVML reports it: the percentage of
// the preceding sample period during which one or more kernels were
// executing, plus the device's memory occupancy at sampling time.
type Sample struct {
	At        time.Duration
	Util      float64 // 0..100
	UsedBytes int64
}

// Sampler polls a device's compute-busy counter the way the paper's monitor
// polls NVML: every Period (the paper samples every 200 ms; the V100's
// internal sample period is 167 ms).
type Sampler struct {
	Dev    *Device
	Period time.Duration

	samples  []Sample
	lastBusy time.Duration
	stop     bool
}

// NewSampler returns a sampler for dev with the given polling period.
func NewSampler(dev *Device, period time.Duration) *Sampler {
	return &Sampler{Dev: dev, Period: period}
}

// Start polls every Period from now on, until Stop is called. Like a
// daemon's, the polling does not keep a simulation alive.
func (s *Sampler) Start(e *sim.Engine) {
	s.lastBusy = s.Dev.ComputeBusy()
	var sample func()
	sample = func() {
		busy := s.Dev.ComputeBusy()
		util := min(100, float64(busy-s.lastBusy)/float64(s.Period)*100)
		s.lastBusy = busy
		s.samples = append(s.samples, Sample{At: e.Now(), Util: util, UsedBytes: s.Dev.UsedBytes()})
		if !s.stop {
			e.At(e.Now()+s.Period, sample)
		}
	}
	e.At(e.Now()+s.Period, sample)
}

// Stop ends the sampling after the in-flight period completes.
func (s *Sampler) Stop() { s.stop = true }

// Samples returns all recorded samples.
func (s *Sampler) Samples() []Sample { return s.samples }

// MovingAverage returns the utilization series smoothed with a trailing
// window of the given size, as plotted in the paper's Figure 7 (window 5).
func (s *Sampler) MovingAverage(window int) []Sample {
	if window < 1 {
		window = 1
	}
	out := make([]Sample, 0, len(s.samples))
	var sum float64
	for i, smp := range s.samples {
		sum += smp.Util
		if i >= window {
			sum -= s.samples[i-window].Util
		}
		n := window
		if i+1 < window {
			n = i + 1
		}
		out = append(out, Sample{At: smp.At, Util: sum / float64(n), UsedBytes: smp.UsedBytes})
	}
	return out
}

// MeanUtil returns the average utilization over all samples between from and
// to (inclusive); with from==to==0 it averages every sample.
func (s *Sampler) MeanUtil(from, to time.Duration) float64 {
	var sum float64
	var n int
	for _, smp := range s.samples {
		if (from != 0 || to != 0) && (smp.At < from || smp.At > to) {
			continue
		}
		sum += smp.Util
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
