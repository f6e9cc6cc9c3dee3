// Package stats provides the hand-written statistical substrate used by the
// maximum-power estimator: a deterministic random number generator, special
// functions, the normal and Student-t distributions, empirical distribution
// utilities, and the small numerical-optimization toolkit needed by the
// maximum-likelihood fits.
//
// Everything in this package is implemented from scratch on top of the Go
// standard library (math only); there is no dependency on external
// statistics packages. All randomness in the repository flows through RNG so
// that every experiment is reproducible from a single seed.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256** (Blackman & Vigna). It is not safe for concurrent use.
// Parallel streams come from jumps: the fleet gives shard k the job's
// state jumped k times by Jump, and Lanes draws eight runs of one stream
// side by side from states jumped ahead to each run's first draw.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, which guards
// against poorly distributed user seeds (including zero).
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
}

// splitmix64 advances a SplitMix64 state and returns (nextState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	var x uint64
	x, s[0], s[1], s[2], s[3] = next(s[0], s[1], s[2], s[3])
	return x
}

// next is one xoshiro256** step on a state passed by value, so loops
// that draw many words keep the state in registers: it returns the
// output and the advanced state.
func next(s0, s1, s2, s3 uint64) (x, n0, n1, n2, n3 uint64) {
	x = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return x, s0, s1, s2, rotl(s3, 45)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// State returns the generator's internal state. Together with SetState it
// is the checkpoint seam: capturing the state after N draws and restoring
// it later continues the exact same stream, so interrupted computations
// can resume bit-identically.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState restores a state previously captured by State. The all-zero
// state is absorbing for xoshiro256** (every output would be zero), so it
// is replaced by the zero-seeded state instead.
func (r *RNG) SetState(s [4]uint64) {
	if s == ([4]uint64{}) {
		r.Seed(0)
		return
	}
	r.s = s
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 { return unitFloat(r.Uint64()) }

// unitFloat is the Float64 that the draw x makes.
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Fill overwrites dst with successive Uint64 draws: the same words, and
// the same end state, as len(dst) Uint64 calls. The state stays in
// locals for the whole loop instead of round-tripping through r.
func (r *RNG) Fill(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i], s0, s1, s2, s3 = next(s0, s1, s2, s3)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// BoolThreshold converts a probability into the integer threshold that
// BoolBits compares against: Float64() < p holds exactly when the draw's
// top 53 bits are below BoolThreshold(p). Float64 returns k·2⁻⁵³ for
// k = Uint64()>>11, exactly (k < 2⁵³ converts without rounding and the
// power-of-two scale is exact), and p·2⁵³ is exact too for p in (0, 1),
// subnormals included. So k·2⁻⁵³ < p ⇔ k < p·2⁵³ ⇔ k < ⌈p·2⁵³⌉, the
// last step because k is an integer. p ≤ 0 and NaN give 0 (no draw
// passes, as no Float64 is below them); p ≥ 1 gives 2⁵³ (every draw
// passes).
func BoolThreshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// BoolBits makes n ≤ 64 Bernoulli draws against the threshold t of
// BoolThreshold(p) and returns them as bits: bit j is the j-th draw,
// the value Bool(p) would have returned, and bits n..63 are zero. It
// consumes the stream exactly like n Bool(p) calls. The comparison is
// branch-free: k − t wraps to a value with the top bit set exactly when
// k < t, as both are below 2⁵⁴.
func (r *RNG) BoolBits(t uint64, n int) uint64 {
	if n < 0 || n > 64 {
		panic("stats: BoolBits needs 0 ≤ n ≤ 64")
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var bits, x uint64
	for j := 0; j < n; j++ {
		x, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		bits |= (x>>11 - t) >> 63 << uint(j)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return bits
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	// Guard against log(0); Float64 never returns 1, so 1-u is in (0,1].
	return -math.Log(1 - u)
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
