package stats

import (
	"math/bits"
	"sync"
)

// Jumps. The xoshiro256** state transition T is linear over GF(2), and
// its characteristic polynomial P has degree 256. By Cayley–Hamilton
// P(T) = 0, so if x^d mod P = Σ c_b·x^b then T^d = Σ c_b·T^b: the state d
// draws later is the XOR of the states b draws later over the b with
// c_b = 1. Reaching it is a walk of 256 steps whatever d is, once the
// 256 coefficients are known. A polynomial of degree below 256 is four
// words, word w holding the coefficients of x^(64w) … x^(64w+63).

// charPoly is P − x²⁵⁶. TestCharPoly derives it again by
// Berlekamp–Massey from 512 draws and checks that x^(2¹²⁸) mod P is
// jumpPoly.
var charPoly = [4]uint64{0x9d116f2bb0f0f001, 0x0280002bcefd1a5e, 0x04b4edcf26259f85, 0x0003c03c3f3ecb19}

// jumpPoly is the published xoshiro256** jump polynomial (Blackman &
// Vigna), x^(2¹²⁸) mod P: walking it advances the generator by exactly
// 2¹²⁸ draws.
var jumpPoly = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}

// Jump advances the generator by 2^128 steps in O(256) work. Jumping k
// times from a common origin yields k+1 streams whose next 2^128 outputs
// are pairwise non-overlapping, which is how a job seed deterministically
// derives per-shard substreams: shard k samples from the origin state
// jumped k times. Jump is a pure function of the state, so it composes
// with State/SetState — capturing the state, jumping, and restoring
// round-trips exactly.
func (r *RNG) Jump() { r.s = jumpState(r.s, &jumpPoly) }

// jumpState is the walk: s jumped by the polynomial c, the XOR of the
// states b draws after s over the b whose coefficient in c is set. The
// lane kernel's jump (lanesJump) makes the same walk for eight
// polynomials at once.
func jumpState(s [4]uint64, c *[4]uint64) [4]uint64 {
	var acc [4]uint64
	for b := 0; b < 256; b++ {
		if c[b/64]>>uint(b%64)&1 != 0 {
			acc[0] ^= s[0]
			acc[1] ^= s[1]
			acc[2] ^= s[2]
			acc[3] ^= s[3]
		}
		_, s[0], s[1], s[2], s[3] = next(s[0], s[1], s[2], s[3])
	}
	return acc
}

// mulX returns a·x mod P.
func mulX(a [4]uint64) [4]uint64 {
	carry := -(a[3] >> 63)
	a[3] = a[3]<<1 | a[2]>>63
	a[2] = a[2]<<1 | a[1]>>63
	a[1] = a[1]<<1 | a[0]>>63
	a[0] <<= 1
	for w := range a {
		a[w] ^= charPoly[w] & carry
	}
	return a
}

// mulMod returns a·b mod P, by Horner's rule over b's coefficients from
// the highest.
func mulMod(a, b [4]uint64) [4]uint64 {
	var r [4]uint64
	for i := 255; i >= 0; i-- {
		r = mulX(r)
		if b[i/64]>>uint(i%64)&1 != 0 {
			for w := range r {
				r[w] ^= a[w]
			}
		}
	}
	return r
}

// powX returns x^d mod P, by square-and-multiply over d's bits from the
// highest.
func powX(d uint64) [4]uint64 {
	r := [4]uint64{1}
	for i := 63 - bits.LeadingZeros64(d); i >= 0; i-- {
		r = mulMod(r, r)
		if d>>uint(i)&1 != 0 {
			r = mulX(r)
		}
	}
	return r
}

// lanePolys returns the jump polynomials of Lanes.Start(r, d): lane l's
// is x^(l·d) mod P, its word w at [w][l], the layout of Lanes' state.
// A set costs about twenty products mod P, so sets are kept in a
// bounded, process-wide table keyed by d: every chunk of one shape, and
// every source that draws chunks of that shape, shares one set. The
// table holds immutable values and is safe for concurrent use.
func lanePolys(d uint64) *[4][8]uint64 {
	lanePolyMemo.Lock()
	c, ok := lanePolyMemo.m[d]
	lanePolyMemo.Unlock()
	if ok {
		return c
	}
	c = new([4][8]uint64)
	xd, p := powX(d), [4]uint64{1}
	for l := 0; l < 8; l++ {
		for w := range p {
			c[w][l] = p[w]
		}
		p = mulMod(p, xd)
	}
	lanePolyMemo.Lock()
	if len(lanePolyMemo.m) < lanePolyMemoCap {
		lanePolyMemo.m[d] = c
	}
	lanePolyMemo.Unlock()
	return c
}

// lanePolyMemoCap bounds the table of lanePolys: past it, sets are
// computed and not stored, so its memory stays bounded (256 bytes a
// set) whatever chunk shapes callers draw.
const lanePolyMemoCap = 1024

var lanePolyMemo = struct {
	sync.Mutex
	m map[uint64]*[4][8]uint64
}{m: make(map[uint64]*[4][8]uint64)}
