package weibull

import (
	"math"

	"repro/internal/cpufeat"
)

// haveExpKernel reports whether expAVX512 runs here and returns what
// math.Exp returns: the CPU check, then a probe on arguments where
// math.Exp's FMA and plain paths differ, so that a GODEBUG setting that
// turns FMA or AVX off for Go's own math.Exp turns the kernel off too.
// It is decided once, at init.
var haveExpKernel = cpufeat.AVX512() && expProbeMatches()

func expProbeMatches() bool {
	// Arguments on which archExp's FMA path and its plain path return
	// different float64s.
	probe := [...]float64{-2.4234, -3.3539, -12.117, -13.0475, -21.8106, -23.0223, -24.4201, -25.1645}
	var got [len(probe)]float64
	if !expAVX512(&got[0], &probe[0], len(probe), 1) {
		return false
	}
	for i, x := range probe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

// expAVX512 sets dst[i] to math.Exp(a*x[i]) for i < n, copying the FMA
// path of archExp, Go's amd64 math.Exp, eight lanes at a time. It
// returns false, with dst[:n] undefined, when any lane's k + 1023 lies
// outside [1, 2046]: NaN, ±Inf, overflow and results below the normal
// range, which archExp handles on branches the kernel does not copy.
//
//go:noescape
func expAVX512(dst, x *float64, n int, a float64) bool
