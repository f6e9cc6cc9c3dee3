package stats

import "fmt"

// Lanes is eight xoshiro256** generators stepped side by side, so that
// one AVX-512 instruction advances all eight. Start sets lane l to an
// RNG's state l·d draws ahead, so eight consecutive runs of d draws of
// one stream come out at once, each with exactly the draws the RNG
// would have made. Every operation makes on each lane the draws, and
// leaves the lane in the state, of the RNG method it mirrors.
//
// With the kernel (LaneKernel) every operation is one assembly loop.
// Without it each lane runs through RNG's own methods; that is the
// reference the tests hold the kernel to, and slower than drawing
// serially, since it adds the jumps.
type Lanes struct {
	s [4][8]uint64 // s[w][l]: word w of lane l's state
}

// LaneKernel reports whether Lanes runs on the AVX-512 kernel. It is
// decided once, at init, by internal/cpufeat.
func LaneKernel() bool { return haveLaneKernel }

// Start sets lane l, for l = 0…7, to r's state jumped l·d draws ahead.
// r is not changed.
func (ls *Lanes) Start(r *RNG, d uint64) {
	c := lanePolys(d)
	if haveLaneKernel {
		lanesJump(&ls.s, &r.s, c)
		return
	}
	for l := 0; l < 8; l++ {
		ls.setLane(l, jumpState(r.s, &[4]uint64{c[0][l], c[1][l], c[2][l], c[3][l]}))
	}
}

// State returns lane l's state, for RNG.SetState.
func (ls *Lanes) State(l int) [4]uint64 {
	return [4]uint64{ls.s[0][l], ls.s[1][l], ls.s[2][l], ls.s[3][l]}
}

func (ls *Lanes) setLane(l int, s [4]uint64) {
	ls.s[0][l], ls.s[1][l], ls.s[2][l], ls.s[3][l] = s[0], s[1], s[2], s[3]
}

// Fill makes k uniform draws on every lane: lane l's j-th draw goes to
// dst[l·stride+j], the word its j-th Uint64 call would return. k must
// not exceed stride, so the lanes' words do not overlap.
func (ls *Lanes) Fill(dst []uint64, stride, k int) {
	if k < 0 || k > stride || stride >= 1<<31 || k > 0 && 7*stride+k > len(dst) {
		panic(fmt.Sprintf("stats: Lanes.Fill of %d words at stride %d into %d", k, stride, len(dst)))
	}
	if k == 0 {
		return
	}
	if haveLaneKernel {
		lanesFill(&ls.s, &dst[0], stride, k)
		return
	}
	for l := 0; l < 8; l++ {
		r := RNG{s: ls.State(l)}
		r.Fill(dst[l*stride : l*stride+k])
		ls.setLane(l, r.s)
	}
}

// Float64s makes one draw on every lane and sets dst[l] to lane l's
// Float64.
func (ls *Lanes) Float64s(dst *[8]float64) {
	var x [8]uint64
	ls.Fill(x[:], 1, 1)
	for l, v := range x {
		dst[l] = unitFloat(v)
	}
}

// BoolBits makes n ≤ 64 Bernoulli draws on every lane, lane l's against
// its own threshold t[l], and sets bits[l] to what that lane's
// BoolBits(t[l], n) call would return.
func (ls *Lanes) BoolBits(bits, t *[8]uint64, n int) {
	if n < 0 || n > 64 {
		panic("stats: Lanes.BoolBits needs 0 ≤ n ≤ 64")
	}
	if haveLaneKernel {
		lanesBool(&ls.s, bits, t, n)
		return
	}
	for l := 0; l < 8; l++ {
		r := RNG{s: ls.State(l)}
		bits[l] = r.BoolBits(t[l], n)
		ls.setLane(l, r.s)
	}
}

// BoolBitsEach makes len(t) ≤ 64 Bernoulli draws on every lane, draw j
// against t[j] on every lane, and sets bit j of bits[l] to lane l's
// draw j: what BoolBits(t[j], 1) calls in order would return. Bits from
// len(t) on are zero.
func (ls *Lanes) BoolBitsEach(bits *[8]uint64, t []uint64) {
	if len(t) > 64 {
		panic("stats: Lanes.BoolBitsEach needs at most 64 thresholds")
	}
	if haveLaneKernel {
		var t0 *uint64
		if len(t) > 0 {
			t0 = &t[0]
		}
		lanesBoolEach(&ls.s, bits, t0, len(t))
		return
	}
	for l := 0; l < 8; l++ {
		r := RNG{s: ls.State(l)}
		bits[l] = 0
		for j, tj := range t {
			bits[l] |= r.BoolBits(tj, 1) << uint(j)
		}
		ls.setLane(l, r.s)
	}
}
