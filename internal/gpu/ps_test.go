package gpu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"dgsf/internal/sim"
)

// TestProcessorSharingMatchesMG1PS checks the compute engine against queueing
// theory. Kernels arriving as a Poisson stream at one device form an M/G/1
// processor-sharing queue, whose mean sojourn time is E[S]/(1-ρ) whatever
// the service distribution: exponential, deterministic and
// hyperexponential service (squared coefficient of variation 1, 0 and 2)
// at ρ = 0.5 and 0.8 must all come within 5% of it. The formula is taken
// at the load and mean service the run drew, not the nominal ones: at
// ρ = 0.8 a 1% excess of drawn work moves the mean sojourn by 4%. Over
// other seeds the relative error spreads about ±2% (one standard
// deviation) at ρ = 0.8 and ±1-2% at 0.5.
func TestProcessorSharingMatchesMG1PS(t *testing.T) {
	const (
		meanS  = float64(time.Millisecond)
		warmup = 2000 // kernels that arrive at a cold device, not counted
	)
	// h2 is the balanced-means hyperexponential with SCV 2: branch 1 with
	// probability p1 and mean meanS/(2*p1), else branch 2.
	p1 := 0.5 * (1 + math.Sqrt(1.0/3))
	services := []struct {
		name string
		draw func(r *rand.Rand) float64
	}{
		{"exponential", func(r *rand.Rand) float64 { return r.ExpFloat64() * meanS }},
		{"deterministic", func(*rand.Rand) float64 { return meanS }},
		{"h2", func(r *rand.Rand) float64 {
			if r.Float64() < p1 {
				return r.ExpFloat64() * meanS / (2 * p1)
			}
			return r.ExpFloat64() * meanS / (2 * (1 - p1))
		}},
	}
	for _, rho := range []float64{0.5, 0.8} {
		// The variance of the mean sojourn grows like (1-ρ)^-4.
		kernels := 30000
		if rho > 0.5 {
			kernels = 140000
		}
		for _, svc := range services {
			t.Run(fmt.Sprintf("%s/rho=%v", svc.name, rho), func(t *testing.T) {
				e := sim.NewEngine(1)
				cfg := V100Config(0)
				cfg.KernelLat = 0
				d := New(e, cfg)
				var sojourn, work, measuredWork time.Duration
				var drawnRho float64
				e.Run("arrivals", func(p *sim.Proc) {
					r := rand.New(rand.NewSource(int64(1000*rho) + int64(len(svc.name))))
					wg := sim.NewWaitGroup(e)
					for i := 0; i < warmup+kernels; i++ {
						p.Sleep(time.Duration(r.ExpFloat64() * meanS / rho))
						s, measured := time.Duration(svc.draw(r)), i >= warmup
						work += s
						if measured {
							measuredWork += s
						}
						wg.Add(1)
						p.Spawn("kernel", func(p *sim.Proc) {
							defer wg.Done()
							start := p.Now()
							d.ExecKernel(p, s)
							if measured {
								sojourn += p.Now() - start
							}
						})
					}
					drawnRho = float64(work) / float64(p.Now())
					wg.Wait(p)
				})
				got := float64(sojourn) / float64(kernels)
				want := float64(measuredWork) / float64(kernels) / (1 - drawnRho)
				if math.Abs(got-want)/want > 0.05 {
					t.Errorf("mean sojourn %v at drawn load %.4f, want %v ±5%%", time.Duration(got), drawnRho, time.Duration(want))
				}
			})
		}
	}
}
