package stats

import "repro/internal/cpufeat"

// haveLaneKernel reports whether the Lanes kernel runs here. It is
// decided once, at init.
var haveLaneKernel = cpufeat.AVX512()

// The Lanes kernel: s is a Lanes state, word w of lane l at s[w][l].
// Each function advances the eight lanes by the draws it makes, with
// next's arithmetic on the eight lanes of a ZMM register.

// lanesFill makes k ≥ 1 draws on every lane, lane l's j-th to
// dst[l·stride+j]; stride < 2³¹.
//
//go:noescape
func lanesFill(s *[4][8]uint64, dst *uint64, stride, k int)

// lanesBool sets bits[l] to lane l's n ≤ 64 Bernoulli draws against
// t[l], draw j at bit j.
//
//go:noescape
func lanesBool(s *[4][8]uint64, bits, t *[8]uint64, n int)

// lanesBoolEach sets bits[l] to lane l's n ≤ 64 Bernoulli draws, draw j
// against t[j] and at bit j; t may be nil when n is 0.
//
//go:noescape
func lanesBoolEach(s *[4][8]uint64, bits *[8]uint64, t *uint64, n int)

// lanesJump sets lane l of dst to from jumped by lane l's polynomial in
// c: jumpState for eight polynomials in one walk.
//
//go:noescape
func lanesJump(dst *[4][8]uint64, from *[4]uint64, c *[4][8]uint64)
