// Package avgpower implements Monte-Carlo average power estimation with a
// sequential stopping rule — the companion problem to maximum power and
// the setting of the paper's reference [10] (Ding, Wu, Hsieh & Pedram,
// DAC'97). Average power is a mean, so plain CLT machinery applies: draw
// vector pairs, simulate, stop when the Student-t confidence interval of
// the running mean is within the requested relative error. The package
// exists both as a useful tool and as the contrast the paper draws:
// means are easy (≈30–300 units), maxima are not.
package avgpower

import (
	"errors"
	"math"

	"repro/internal/evt"
	"repro/internal/stats"
)

// Config parameterizes the estimator.
type Config struct {
	// Epsilon is the target relative half-width of the CI (default 0.05).
	Epsilon float64
	// Confidence is the CI level (default 0.90).
	Confidence float64
	// MaxUnits caps the run (default 100000).
	MaxUnits int
}

// minUnits is the sample drawn before the stopping rule is first
// tested: the usual CLT warm-up.
const minUnits = 30

func (c Config) defaults() Config {
	if c.Epsilon <= 0 {
		c.Epsilon = 0.05
	}
	if c.Confidence <= 0 {
		c.Confidence = 0.90
	}
	if c.MaxUnits <= 0 {
		c.MaxUnits = 100000
	}
	return c
}

// Result reports an average-power estimate.
type Result struct {
	// Mean is the estimated average power (mW).
	Mean float64
	// CILow/CIHigh bound the true mean at the configured confidence.
	CILow, CIHigh float64
	// RelErr is the final CI half-width over the mean.
	RelErr float64
	// Units is the number of simulated vector pairs.
	Units int
	// Converged reports whether the target was met within MaxUnits.
	Converged bool
}

// Estimate runs the sequential Monte-Carlo mean estimator against any
// power source (a finite population or a streaming simulator).
func Estimate(src evt.Source, cfg Config, rng *stats.RNG) (Result, error) {
	if src == nil {
		return Result{}, errors.New("avgpower: nil source")
	}
	if cfg.Epsilon >= 1 || cfg.Confidence >= 1 {
		return Result{}, errors.New("avgpower: epsilon and confidence must be in (0,1)")
	}
	cfg = cfg.defaults()

	var (
		n    int
		mean float64
		m2   float64 // Welford sum of squared deviations
		res  Result
	)
	for n < cfg.MaxUnits {
		x := src.SamplePower(rng)
		n++
		d := x - mean
		mean += d / float64(n)
		m2 += d * (x - mean)

		if n < minUnits {
			continue
		}
		sd := math.Sqrt(m2 / float64(n-1))
		tq := stats.TwoSidedT(cfg.Confidence, float64(n-1))
		half := tq * sd / math.Sqrt(float64(n))
		res = Result{
			Mean:   mean,
			CILow:  mean - half,
			CIHigh: mean + half,
			Units:  n,
		}
		if mean != 0 {
			res.RelErr = half / math.Abs(mean)
		} else {
			res.RelErr = math.Inf(1)
		}
		if res.RelErr <= cfg.Epsilon {
			res.Converged = true
			return res, nil
		}
	}
	res.Units = n
	return res, nil
}
