// Package vectorgen generates input vector-pair populations. The paper's
// two problem categories map onto the generators here: unconstrained
// maximum power uses Uniform or HighActivity populations (Category I.1),
// and constrained maximum power uses Constrained or Grouped populations
// built from per-input transition probabilities (Category I.2). A finite
// Population couples the generated pairs with their simulated cycle powers
// and exposes the census quantities the experiments need (true maximum,
// qualified-unit fraction, sampling).
package vectorgen

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Pair is a two-vector stimulus: the circuit is settled at V1 and V2 is
// applied at the cycle boundary.
type Pair struct {
	V1, V2 []bool
}

// Generator produces random vector pairs for a fixed input width.
type Generator interface {
	// Name identifies the generator in reports.
	Name() string
	// Inputs returns the vector width.
	Inputs() int
	// Generate draws one pair using the supplied RNG.
	Generate(rng *stats.RNG) Pair
}

// generateRows is the Generate of the built-in generators: one pair
// drawn into fresh bit rows by the generator's draw routine, then
// unpacked. Each generator has that one routine, so its []bool and
// packed outputs cannot drift apart.
func generateRows(g rowGenerator, rng *stats.RNG) Pair {
	n := g.Inputs()
	w := rowWords(n)
	rows := make([]uint64, 2*w)
	g.drawRows(rng, rows[:w], rows[w:])
	return Pair{V1: unpackRow(rows[:w], n), V2: unpackRow(rows[w:], n)}
}

// unpackRow expands the first n bits of a bit row into a vector.
func unpackRow(row []uint64, n int) []bool {
	v := make([]bool, n)
	for i := range v {
		v[i] = row[i/64]>>uint(i%64)&1 != 0
	}
	return v
}

// Uniform draws both vectors independently and uniformly: every input line
// has transition probability 1/2. This realizes the paper's "random vector
// generation ≡ simple random sampling" setting for Category I.1.
type Uniform struct {
	N int // input width
}

// Name implements Generator.
func (u Uniform) Name() string { return "uniform" }

// Inputs implements Generator.
func (u Uniform) Inputs() int { return u.N }

// Generate implements Generator.
func (u Uniform) Generate(rng *stats.RNG) Pair { return generateRows(u, rng) }

// drawRows implements rowGenerator: both rows are uniform words.
func (u Uniform) drawRows(rng *stats.RNG, r1, r2 []uint64) {
	rng.Fill(r1)
	rng.Fill(r2)
}

// pairDraws implements laneGenerator: one word per 64 inputs of each
// row.
func (u Uniform) pairDraws() uint64 { return 2 * uint64(rowWords(u.N)) }

// drawLanes implements laneGenerator: drawRows on eight lanes.
func (u Uniform) drawLanes(ls stats.Lanes, r1, r2 []uint64, w, run, from, to int) stats.Lanes {
	for j := from; j < to; j++ {
		ls.Fill(r1[j*w:], run*w, w)
		ls.Fill(r2[j*w:], run*w, w)
	}
	return ls
}

// rowWords is the width of a row of n inputs.
func rowWords(n int) int { return (n + 63) / 64 }

// HighActivity draws v1 uniformly and flips each input with a per-pair
// activity a = MinActivity + (1−MinActivity)·u^Skew, u uniform. This
// reproduces the paper's unconstrained populations of "randomly generated
// high activity (average switching activity larger than 0.3) vector
// pairs". Skew > 1 makes near-maximal activities rarer, thinning the
// top-power band: the default Skew of 4 calibrates the qualified-unit
// fraction Y into the paper's observed 1e-4 decade (Table 1, column 2);
// Skew = 1 gives a uniform activity mixture.
type HighActivity struct {
	N           int
	MinActivity float64 // lower bound of per-pair activity; paper uses 0.3
	Skew        float64 // activity-mixture exponent; 0 selects the default 4
}

// DefaultActivitySkew is the activity-mixture exponent used when
// HighActivity.Skew is zero.
const DefaultActivitySkew = 4

// Name implements Generator.
func (h HighActivity) Name() string { return fmt.Sprintf("high-activity(≥%.2g)", h.MinActivity) }

// Inputs implements Generator.
func (h HighActivity) Inputs() int { return h.N }

// Generate implements Generator.
func (h HighActivity) Generate(rng *stats.RNG) Pair { return generateRows(h, rng) }

// drawRows implements rowGenerator: the pair's activity, the uniform
// first row, then one flip draw per input in input order, 64 to a call.
func (h HighActivity) drawRows(rng *stats.RNG, r1, r2 []uint64) {
	t := h.flipThreshold(rng.Float64())
	rng.Fill(r1)
	for w := range r1 {
		r2[w] = r1[w] ^ rng.BoolBits(t, min(h.N-64*w, 64))
	}
}

// flipThreshold is the BoolBits threshold of the flips of a pair whose
// activity draw is u. drawRows and drawLanes both call it, so both
// evaluate one float expression.
func (h HighActivity) flipThreshold(u float64) uint64 {
	lo := h.MinActivity
	if lo < 0 {
		lo = 0
	}
	if lo > 1 {
		lo = 1
	}
	skew := h.Skew
	if skew <= 0 {
		skew = DefaultActivitySkew
	}
	return stats.BoolThreshold(lo + (1-lo)*skewPow(u, skew))
}

// skewPow returns math.Pow(u, s) for an activity draw u of
// RNG.Float64. For an integer s from 1 to 16 it multiplies, in the
// order math.Pow's square-and-multiply loop does: the squares u, u², u⁴,
// u⁸, u¹⁶, and the product of the squares of s's set bits, lowest first
// (at the default skew 4, t := u*u and then t*t). math.Pow makes those
// multiplies on Frexp mantissas and scales the result by a power of
// two; a nonzero u is at least 2⁻⁵³, so every product on the way is at
// least 2⁻⁸⁴⁸, a normal float, the scaling changes no rounding, and the
// two agree bit for bit. u = 0 gives 0 both ways. Every other s goes to
// math.Pow.
func skewPow(u, s float64) float64 {
	if s < 1 || s > 16 || s != math.Trunc(s) {
		return math.Pow(u, s)
	}
	p := 1.0
	for n := int(s); ; n >>= 1 {
		if n&1 == 1 {
			p *= u
		}
		if n == 1 {
			return p
		}
		u *= u
	}
}

// pairDraws implements laneGenerator: the activity, one word per 64
// inputs, one flip per input.
func (h HighActivity) pairDraws() uint64 { return 1 + uint64(rowWords(h.N)) + uint64(h.N) }

// drawLanes implements laneGenerator: drawRows on eight lanes.
func (h HighActivity) drawLanes(ls stats.Lanes, r1, r2 []uint64, w, run, from, to int) stats.Lanes {
	stride := run * w
	var u [8]float64
	var t, bits [8]uint64
	for j := from; j < to; j++ {
		r1, r2 := r1[j*w:], r2[j*w:]
		ls.Float64s(&u)
		for l, ul := range u {
			t[l] = h.flipThreshold(ul)
		}
		ls.Fill(r1, stride, w)
		for k := 0; k < w; k++ {
			ls.BoolBits(&bits, &t, min(h.N-64*k, 64))
			for l, b := range bits {
				r2[l*stride+k] = r1[l*stride+k] ^ b
			}
		}
	}
	return ls
}

// Constrained draws v1 uniformly and flips input i with probability
// Probs[i]: the per-input transition-probability specification of
// Category I.2. Use ConstantActivity for the paper's uniform 0.7 / 0.3
// settings.
type Constrained struct {
	Probs []float64
	label string
}

// ConstantActivity returns a Constrained generator where every one of n
// inputs has the same transition probability p.
func ConstantActivity(n int, p float64) Constrained {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("vectorgen: transition probability %v out of [0,1]", p))
	}
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = p
	}
	return Constrained{Probs: probs, label: fmt.Sprintf("constrained(a=%.2g)", p)}
}

// Name implements Generator.
func (c Constrained) Name() string {
	if c.label != "" {
		return c.label
	}
	return "constrained"
}

// Inputs implements Generator.
func (c Constrained) Inputs() int { return len(c.Probs) }

// Generate implements Generator.
func (c Constrained) Generate(rng *stats.RNG) Pair { return generateRows(c, rng) }

// drawRows implements rowGenerator: the uniform first row, then input
// i's flip drawn with Probs[i], in input order.
func (c Constrained) drawRows(rng *stats.RNG, r1, r2 []uint64) {
	rng.Fill(r1)
	copy(r2, r1)
	for i, p := range c.Probs {
		r2[i/64] ^= rng.BoolBits(stats.BoolThreshold(p), 1) << uint(i%64)
	}
}

// pairDraws implements laneGenerator: one word per 64 inputs, one flip
// per input.
func (c Constrained) pairDraws() uint64 {
	return uint64(rowWords(len(c.Probs))) + uint64(len(c.Probs))
}

// drawLanes implements laneGenerator: drawRows on eight lanes, the
// flips of each 64 inputs in one call, input i's against the threshold
// of Probs[i] on every lane.
func (c Constrained) drawLanes(ls stats.Lanes, r1, r2 []uint64, w, run, from, to int) stats.Lanes {
	stride := run * w
	var t [64]uint64
	var bits [8]uint64
	for j := from; j < to; j++ {
		r1, r2 := r1[j*w:], r2[j*w:]
		ls.Fill(r1, stride, w)
		for k := 0; k < w; k++ {
			probs := c.Probs[64*k : min(64*k+64, len(c.Probs))]
			for i, p := range probs {
				t[i] = stats.BoolThreshold(p)
			}
			ls.BoolBitsEach(&bits, t[:len(probs)])
			for l, b := range bits {
				r2[l*stride+k] = r1[l*stride+k] ^ b
			}
		}
	}
	return ls
}

// Grouped models joint transition probabilities: inputs within one group
// transition together (all flip or none), with per-group transition
// probability. Inputs not covered by any group keep independent behaviour
// with probability Default.
type Grouped struct {
	N       int
	Groups  [][]int   // index sets; must be disjoint and in range
	Probs   []float64 // one transition probability per group
	Default float64   // transition probability for ungrouped inputs
}

// Name implements Generator.
func (g Grouped) Name() string { return fmt.Sprintf("grouped(%d groups)", len(g.Groups)) }

// Inputs implements Generator.
func (g Grouped) Inputs() int { return g.N }

// Validate checks group structure; Generate (and GeneratePacked) panic
// on invalid setups, so callers constructing Grouped from user input
// should Validate first.
func (g Grouped) Validate() error {
	if len(g.Groups) != len(g.Probs) {
		return fmt.Errorf("vectorgen: %d groups but %d probabilities", len(g.Groups), len(g.Probs))
	}
	seen := make(map[int]bool)
	for gi, grp := range g.Groups {
		if len(grp) == 0 {
			return fmt.Errorf("vectorgen: group %d empty", gi)
		}
		for _, i := range grp {
			if i < 0 || i >= g.N {
				return fmt.Errorf("vectorgen: group %d has out-of-range input %d", gi, i)
			}
			if seen[i] {
				return fmt.Errorf("vectorgen: input %d in multiple groups", i)
			}
			seen[i] = true
		}
	}
	for _, p := range append(append([]float64{}, g.Probs...), g.Default) {
		if p < 0 || p > 1 {
			return fmt.Errorf("vectorgen: probability %v out of [0,1]", p)
		}
	}
	return nil
}

// Generate implements Generator.
func (g Grouped) Generate(rng *stats.RNG) Pair { return generateRows(g, rng) }

// drawRows implements rowGenerator: the uniform first row, one flip draw
// per group in group order, then one per ungrouped input in input order.
// Unlike the other generators it validates and allocates per pair;
// Grouped populations are built once, not streamed.
func (g Grouped) drawRows(rng *stats.RNG, r1, r2 []uint64) {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	rng.Fill(r1)
	copy(r2, r1)
	grouped := make([]uint64, len(r1))
	for gi, grp := range g.Groups {
		flip := rng.BoolBits(stats.BoolThreshold(g.Probs[gi]), 1)
		for _, i := range grp {
			grouped[i/64] |= 1 << uint(i%64)
			r2[i/64] ^= flip << uint(i%64)
		}
	}
	t := stats.BoolThreshold(g.Default)
	for i := 0; i < g.N; i++ {
		if grouped[i/64]>>uint(i%64)&1 == 0 {
			r2[i/64] ^= rng.BoolBits(t, 1) << uint(i%64)
		}
	}
}

// Activity returns the fraction of inputs that differ between the pair's
// two vectors.
func (p Pair) Activity() float64 {
	if len(p.V1) == 0 {
		return 0
	}
	n := 0
	for i := range p.V1 {
		if p.V1[i] != p.V2[i] {
			n++
		}
	}
	return float64(n) / float64(len(p.V1))
}
