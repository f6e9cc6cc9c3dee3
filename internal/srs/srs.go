// Package srs implements the simple-random-sampling baseline the paper
// compares against: estimate the maximum power as the largest value among
// x uniformly sampled units. It also provides the paper's theoretical
// efficiency analysis — the expected number of units SRS needs before at
// least one "qualified unit" (within ε of the true maximum) is seen with
// probability l.
package srs

import (
	"fmt"
	"math"

	"repro/internal/evt"
	"repro/internal/stats"
)

// Estimate draws units from src with replacement and returns the largest
// observed power — the SRS lower-bound estimate.
func Estimate(src evt.Source, units int, rng *stats.RNG) float64 {
	if units <= 0 {
		panic("srs: units must be positive")
	}
	max := math.Inf(-1)
	for i := 0; i < units; i++ {
		if p := src.SamplePower(rng); p > max {
			max = p
		}
	}
	return max
}

// TheoreticalUnits returns the number of units x such that
// P(at least one qualified unit among x draws) ≥ confidence, given the
// qualified-unit fraction Y = Z/|V|:
//
//	x = log(1 − confidence) / log(1 − Y)
//
// This is the paper's 6th-column "SRS AVE" quantity (confidence 0.9 gives
// the log(0.1) form printed in the text). It returns +Inf when Y = 0.
func TheoreticalUnits(qualifiedFraction, confidence float64) float64 {
	if qualifiedFraction < 0 || qualifiedFraction > 1 {
		panic(fmt.Sprintf("srs: qualified fraction %v out of [0,1]", qualifiedFraction))
	}
	if confidence <= 0 || confidence >= 1 {
		panic(fmt.Sprintf("srs: confidence %v out of (0,1)", confidence))
	}
	if qualifiedFraction == 0 {
		return math.Inf(1)
	}
	if qualifiedFraction == 1 {
		return 1
	}
	return math.Log(1-confidence) / math.Log(1-qualifiedFraction)
}

// QualityStats summarizes repeated SRS runs against a known maximum, the
// content of the paper's Table 2 columns: the largest (signed) relative
// estimation error across runs, and the fraction of runs whose absolute
// error exceeds the epsilon threshold.
type QualityStats struct {
	Runs        int
	Units       int
	LargestErr  float64 // signed error of largest magnitude; SRS errors are ≤ 0
	MeanErr     float64
	FracOverEps float64 // fraction of runs with |error| > eps
}

// Repeated performs runs independent SRS estimates of a fixed unit budget
// and scores them against actualMax.
func Repeated(src evt.Source, units, runs int, actualMax, eps float64, rng *stats.RNG) QualityStats {
	if runs <= 0 {
		panic("srs: runs must be positive")
	}
	qs := QualityStats{Runs: runs, Units: units}
	worstAbs := -1.0 // ensure the first run always sets LargestErr
	over := 0
	var sum float64
	for r := 0; r < runs; r++ {
		est := Estimate(src, units, rng)
		err := evt.RelativeError(est, actualMax)
		sum += err
		if math.Abs(err) > worstAbs {
			worstAbs = math.Abs(err)
			qs.LargestErr = err
		}
		if math.Abs(err) > eps {
			over++
		}
	}
	qs.MeanErr = sum / float64(runs)
	qs.FracOverEps = float64(over) / float64(runs)
	return qs
}
