package stats

import "testing"

// berlekampMassey returns the shortest linear recurrence over GF(2) that
// generates seq: the connection polynomial C(x) = 1 + c_1·x + … + c_L·x^L,
// coefficient i at c[i], with seq[t] = Σ_{i=1..L} c_i·seq[t−i] for t ≥ L.
func berlekampMassey(seq []uint8) (c []uint8, L int) {
	n := len(seq)
	c = make([]uint8, n+1)
	b := make([]uint8, n+1)
	c[0], b[0] = 1, 1
	m := 1
	for t := 0; t < n; t++ {
		d := seq[t]
		for i := 1; i <= L; i++ {
			d ^= c[i] & seq[t-i]
		}
		if d == 0 {
			m++
			continue
		}
		prev := append([]uint8(nil), c...)
		for i := 0; i+m <= n; i++ {
			c[i+m] ^= b[i]
		}
		if 2*L <= t {
			L = t + 1 - L
			b = prev
			m = 1
		} else {
			m++
		}
	}
	return c[:L+1], L
}

// TestCharPoly re-derives the characteristic polynomial P of the
// xoshiro256** transition from the generator itself, and checks it
// against the published jump: bit 0 of the first state word, over 512
// draws, obeys P's recurrence, so Berlekamp–Massey finds the reciprocal
// of P, of degree 256 (the transition's minimal polynomial is P, which
// is primitive); and x^(2¹²⁸) mod P must be jumpPoly.
func TestCharPoly(t *testing.T) {
	r := NewRNG(20260817)
	seq := make([]uint8, 512)
	for i := range seq {
		seq[i] = uint8(r.State()[0] & 1)
		r.Uint64()
	}
	c, L := berlekampMassey(seq)
	if L != 256 {
		t.Fatalf("Berlekamp–Massey found a recurrence of order %d, want 256", L)
	}
	// P(x) = x^L·C(1/x): the coefficient of x^(256−i) is c_i.
	var p [4]uint64
	for i := 1; i <= L; i++ {
		if b := 256 - i; c[i] != 0 {
			p[b/64] |= 1 << uint(b%64)
		}
	}
	if p != charPoly {
		t.Fatalf("derived P − x²⁵⁶ = %#x, charPoly = %#x", p, charPoly)
	}
	x := [4]uint64{2} // x^(2^k) by k squarings of x
	for k := 0; k < 128; k++ {
		x = mulMod(x, x)
	}
	if x != jumpPoly {
		t.Fatalf("x^(2¹²⁸) mod P = %#x, jumpPoly = %#x", x, jumpPoly)
	}
}

// TestJumpByDistanceMatchesSteps checks the general jump, the walk of
// x^d mod P, against d serial steps, at the small distances where the
// polynomial is x^d itself (d < 256), at the first reductions, and at
// random distances up to 2²⁴: in Go, and as lane 1 of Lanes.Start.
func TestJumpByDistanceMatchesSteps(t *testing.T) {
	t.Logf("lane kernel: %v", LaneKernel())
	pick := NewRNG(5)
	ds := []uint64{0, 1, 255, 256, 257}
	for i := 0; i < 6; i++ {
		ds = append(ds, pick.Uint64()>>40)
	}
	for _, d := range ds {
		r := NewRNG(d ^ 77)
		for i := 0; i < 3; i++ {
			r.Uint64()
		}
		c := powX(d)
		got := jumpState(r.State(), &c)
		var ls Lanes
		ls.Start(r, d)
		for i := uint64(0); i < d; i++ {
			r.Uint64()
		}
		if got != r.State() {
			t.Fatalf("jump by %d: %#x, %d steps: %#x", d, got, d, r.State())
		}
		if ls.State(1) != r.State() {
			t.Fatalf("lane 1 of Start(r, %d): %#x, %d steps: %#x", d, ls.State(1), d, r.State())
		}
	}
}

// TestLanePolysMemo checks that a memoised set of lane polynomials is
// the cold computation's, lane l holding x^(l·d) mod P, and that the
// table stays within its bound.
func TestLanePolysMemo(t *testing.T) {
	for _, d := range []uint64{0, 1, 300, 8056, 1 << 20} {
		c := lanePolys(d)
		if lanePolys(d) != c {
			t.Fatalf("d = %d: second lookup missed the table", d)
		}
		for l := uint64(0); l < 8; l++ {
			want := powX(l * d)
			if got := [4]uint64{c[0][l], c[1][l], c[2][l], c[3][l]}; got != want {
				t.Fatalf("d = %d, lane %d: %#x, want x^%d mod P = %#x", d, l, got, l*d, want)
			}
		}
	}
	for d := uint64(0); d < 2*lanePolyMemoCap; d++ {
		lanePolys(d)
	}
	lanePolyMemo.Lock()
	n := len(lanePolyMemo.m)
	lanePolyMemo.Unlock()
	if n > lanePolyMemoCap {
		t.Fatalf("lane polynomial table holds %d sets, bound %d", n, lanePolyMemoCap)
	}
}
