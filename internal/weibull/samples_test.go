package weibull

import (
	"math"

	"repro/internal/stats"
)

// goldenCase is one pinned fit: a sample, its shape bound, and whether
// some of its sweeps fall outside the AVX-512 Exp kernel's range, so
// that math.Exp makes them.
type goldenCase struct {
	xs       []float64
	alphaMin float64
	fallback bool
}

// goldenSamples builds the fixed samples TestFitMLEGolden pins: exact
// reverse-Weibull maxima over a range of shapes, sizes and scales,
// uniform and Gumbel-like data, rounded samples with ties, tiny and
// constant samples, and large offsets, all at the default shape bound;
// then samples whose sweeps the Exp kernel hands back to math.Exp.
func goldenSamples() []goldenCase {
	rng := stats.NewRNG(20261017)
	var out []goldenCase
	draw := func(n int, f func() float64) {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f()
		}
		out = append(out, goldenCase{xs: xs, alphaMin: DefaultAlphaMin})
	}
	for _, alpha := range []float64{2.2, 3, 5, 10} {
		for _, n := range []int{5, 10, 30, 100} {
			d := Dist{Alpha: alpha, Beta: 1 / math.Pow(0.05, alpha), Mu: 4.2}
			draw(n, func() float64 { return d.Rand(rng) })
		}
	}
	for _, n := range []int{3, 4, 10, 30} {
		draw(n, rng.Float64)
	}
	for _, n := range []int{10, 30} {
		draw(n, func() float64 { // Gumbel-like: maxima of 20 normals
			m := math.Inf(-1)
			for j := 0; j < 20; j++ {
				m = math.Max(m, rng.NormFloat64())
			}
			return m
		})
	}
	for _, step := range []float64{0.01, 0.05, 0.2} { // ties from rounding
		d := Dist{Alpha: 3, Beta: 1, Mu: 1}
		draw(30, func() float64 { return math.Round(d.Rand(rng)/step) * step })
	}
	for _, scale := range []float64{1e-9, 1e-3, 1e3, 1e9} {
		d := Dist{Alpha: 4, Beta: 1 / math.Pow(scale, 4), Mu: 3 * scale}
		draw(30, func() float64 { return d.Rand(rng) })
	}
	for _, off := range []float64{1e6, -1e6} {
		d := Dist{Alpha: 3, Beta: 1, Mu: off}
		draw(30, func() float64 { return d.Rand(rng) })
	}
	for _, xs := range [][]float64{
		{1, 1, 1, 1},
		{1, 2},
		{0, 0, 0, 1},
		{0, 1, 1, 1},
		{1, 2, 3},
		{-3, -2, -1, -1, 0},
		{5e-324, 1e-323, 1.5e-323, 2e-323},
	} {
		out = append(out, goldenCase{xs: xs, alphaMin: DefaultAlphaMin})
	}
	for _, n := range []int{10, 30, 60} { // mW-scale cycle-power maxima
		draw(n, func() float64 { return 5.3 + 0.1*rng.NormFloat64() - 0.05*rng.ExpFloat64() })
	}
	for _, k := range []float64{0.5, 1, 2, 3, 4, 6, 8} { // maxima of 30 bounded draws
		draw(10, func() float64 {
			m := 0.0
			for j := 0; j < 30; j++ {
				m = math.Max(m, math.Pow(rng.Float64(), 1/k))
			}
			return m
		})
	}
	for _, n := range []int{10, 30} { // heavy right tail
		draw(n, func() float64 { return rng.ExpFloat64() })
	}

	// A sweep leaves the kernel's range when some α·log(yᵢ/max y) is
	// below about −708. At the paper's bound that takes hundreds of
	// values with one far above the rest, or a NaN or infinity. A high
	// shape bound reaches it on the grid's smallest offsets, where
	// log(yᵢ/max y) is about −14, in fits that succeed.
	for _, alphaMin := range []float64{60, 100} {
		for _, alpha := range []float64{30, 80, 150} {
			d := Dist{Alpha: alpha, Beta: 1, Mu: 1}
			draw(10, func() float64 { return d.Rand(rng) })
			out[len(out)-1].alphaMin = alphaMin
		}
	}
	for _, n := range []int{500, 1000} {
		draw(n, func() float64 { return 1e-3 * rng.Float64() })
		out[len(out)-1].xs[0] = 1
	}
	nan, inf := math.NaN(), math.Inf(1)
	out = append(out, goldenCase{xs: []float64{1, 2, nan, 3, 2.5}, alphaMin: DefaultAlphaMin},
		goldenCase{xs: []float64{1, 2, 3, inf}, alphaMin: DefaultAlphaMin})
	for i := len(out) - 10; i < len(out); i++ {
		out[i].fallback = true
	}
	return out
}
