package weibull

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// runLogKernel runs logAVX512 on xs with a sentinel past the end, which
// it must leave alone, and on success compares every lane with math.Log.
func runLogKernel(t *testing.T, xs []float64) bool {
	t.Helper()
	const sentinel = -1234.5
	dst := make([]float64, len(xs)+1)
	dst[len(xs)] = sentinel
	ok := logAVX512(&dst[0], &xs[0], len(xs))
	if dst[len(xs)] != sentinel {
		t.Fatalf("n=%d: kernel wrote past the end", len(xs))
	}
	if !ok {
		return false
	}
	for i, x := range xs {
		if want := math.Log(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("n=%d lane %d: log(%v) (%#x) = %v (%#x), math.Log %v (%#x)", len(xs), i, x,
				math.Float64bits(x), dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
		}
	}
	return true
}

// TestLogKernel compares the AVX-512 kernel with math.Log on every lane:
// random values over the fit's range (0, 1] and over every positive
// float64, subnormals included, for n = 1–40; one-ulp steps across
// HSqrt2, where archLog's f1 select flips, and across powers of two,
// where its exponent steps. ±0, a negative, ±Inf or NaN in any lane
// must make the kernel decline the call.
func TestLogKernel(t *testing.T) {
	if !haveLogKernel {
		t.Skip("no AVX-512 Log kernel on this host (needs AVX-512F/BW, AVX2, AVX and FMA): math.Log only")
	}
	rng := stats.NewRNG(18)
	bad := []float64{0, math.Copysign(0, -1), -1, -5e-324, math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN()}
	for n := 1; n <= 40; n++ {
		// A NaN past the end must not reach the kernel's checks.
		buf := make([]float64, n+1)
		buf[n] = math.NaN()
		xs := buf[:n]
		for rep := 0; rep < 40; rep++ {
			// A fit logs yᵢ/max y, in (0, 1], and yᵢ = μ − xᵢ, any
			// positive value.
			for i := range xs {
				xs[i] = 1 - rng.Float64()
			}
			if !runLogKernel(t, xs) {
				t.Fatalf("n=%d: values in (0, 1] declined: %v", n, xs)
			}
			for i := range xs {
				xs[i] = math.Exp(-30 * rng.Float64())
			}
			if !runLogKernel(t, xs) {
				t.Fatalf("n=%d: values in (e^-30, 1] declined: %v", n, xs)
			}
			for i := range xs {
				xs[i] = 1 + 1e-9*rng.Float64()
			}
			if !runLogKernel(t, xs) {
				t.Fatalf("n=%d: values just above 1 declined: %v", n, xs)
			}
			for i := range xs {
				// Any bit pattern with the sign clear, below +Inf's.
				xs[i] = math.Float64frombits(1 + rng.Uint64()%(0x7FF0000000000000-1))
			}
			if !runLogKernel(t, xs) {
				t.Fatalf("n=%d: positive finite values declined: %v", n, xs)
			}
			for i := range xs {
				xs[i] = math.Float64frombits(1 + rng.Uint64()%(1<<52-1)) // subnormal
			}
			if !runLogKernel(t, xs) {
				t.Fatalf("n=%d: subnormals declined: %v", n, xs)
			}
			b := bad[rep%len(bad)]
			xs[rng.Intn(n)] = b
			if runLogKernel(t, xs) {
				t.Fatalf("n=%d: call with %v accepted", n, b)
			}
		}
	}

	// Eleven one-ulp steps centred on each power of two from the
	// smallest subnormal to the largest finite, on HSqrt2 times each of
	// them, and on the limits. At f1 = HSqrt2 exactly the CMPSD select
	// decides which of two roundings archLog returns.
	edges := []float64{math.SmallestNonzeroFloat64, math.MaxFloat64}
	for e := -1074; e <= 1023; e++ {
		edges = append(edges, math.Ldexp(1, e), math.Ldexp(7.07106781186547524401e-01, e))
	}
	xs := make([]float64, 0, 11)
	for _, c := range edges {
		xs = xs[:0]
		x := c
		for i := 0; i < 5 && x > 0; i++ {
			x = math.Nextafter(x, 0)
		}
		for i := 0; i < 11 && !math.IsInf(x, 0); i++ {
			if x > 0 {
				xs = append(xs, x)
			}
			x = math.Nextafter(x, math.Inf(1))
		}
		for n := 1; n <= len(xs); n++ {
			if !runLogKernel(t, xs[:n]) {
				t.Fatalf("values around %v declined: %v", c, xs[:n])
			}
		}
	}
}
