package sim

import (
	"testing"

	"repro/internal/bench"
)

func TestPackedPairsRoundTrip(t *testing.T) {
	const inputs, n = 70, 130 // >1 word per vector, partial final block
	var pp PackedPairs
	pp.Reset(inputs, n)
	if got, want := pp.Blocks(), 3; got != want {
		t.Fatalf("Blocks() = %d, want %d", got, want)
	}
	mk := func(seed uint64) []bool {
		v := make([]bool, inputs)
		x := seed
		for i := range v {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v[i] = x&1 != 0
		}
		return v
	}
	want1 := make([][]bool, n)
	want2 := make([][]bool, n)
	for i := 0; i < n; i++ {
		want1[i] = mk(uint64(2*i + 1))
		want2[i] = mk(uint64(2*i + 2))
		pp.SetPair(i, want1[i], want2[i])
	}
	v1 := make([]bool, inputs)
	v2 := make([]bool, inputs)
	for i := 0; i < n; i++ {
		pp.PairInto(i, v1, v2)
		for j := 0; j < inputs; j++ {
			if v1[j] != want1[i][j] || v2[j] != want2[i][j] {
				t.Fatalf("pair %d input %d: got (%v,%v) want (%v,%v)", i, j, v1[j], v2[j], want1[i][j], want2[i][j])
			}
		}
		a, b := pp.Pair(i)
		for j := 0; j < inputs; j++ {
			if a[j] != want1[i][j] || b[j] != want2[i][j] {
				t.Fatalf("Pair(%d) mismatch at input %d", i, j)
			}
		}
	}
}

func TestPackedPairsBlockLayout(t *testing.T) {
	// Block b's planes carry one word per primary input, whose bit l is
	// that input's value in pair b·64+l; lanes past the batch are zero.
	// That is the layout every compiled executor reads.
	c := bench.MustGenerate("C432")
	inputs := c.NumInputs()
	var pp PackedPairs
	const n = 100
	pp.Reset(inputs, n)
	vecs1 := make([][]bool, n)
	vecs2 := make([][]bool, n)
	for i := range vecs1 {
		v1 := make([]bool, inputs)
		v2 := make([]bool, inputs)
		for j := range v1 {
			v1[j] = (i+j)%3 == 0
			v2[j] = (i*j)%5 == 1
		}
		vecs1[i], vecs2[i] = v1, v2
		pp.SetPair(i, v1, v2)
	}
	for b := 0; b < pp.Blocks(); b++ {
		in1, in2, lanes := pp.Block(b)
		if len(in1) != inputs || len(in2) != inputs {
			t.Fatalf("block %d: %d/%d plane words, want %d", b, len(in1), len(in2), inputs)
		}
		for j := 0; j < inputs; j++ {
			var want1, want2 uint64
			for l := 0; l < lanes; l++ {
				if vecs1[b*64+l][j] {
					want1 |= 1 << uint(l)
				}
				if vecs2[b*64+l][j] {
					want2 |= 1 << uint(l)
				}
			}
			if in1[j] != want1 || in2[j] != want2 {
				t.Fatalf("block %d input %d: plane (%#x,%#x) want (%#x,%#x)", b, j, in1[j], in2[j], want1, want2)
			}
		}
	}
}

func TestPackedPairsResetReuses(t *testing.T) {
	var pp PackedPairs
	pp.Reset(32, 200)
	pp.In1[0] = ^uint64(0)
	pp.In2[0] = ^uint64(0)
	allocs := testing.AllocsPerRun(10, func() {
		pp.Reset(32, 200)
	})
	if allocs != 0 {
		t.Fatalf("Reset at steady state allocated %v times", allocs)
	}
	if pp.In1[0] != 0 || pp.In2[0] != 0 {
		t.Fatal("Reset did not clear planes")
	}
	// Shrinking batches reuse the same arrays; only growth reallocates.
	pp.Reset(32, 64)
	if got := len(pp.In1); got != 32 {
		t.Fatalf("plane length %d after shrink, want 32", got)
	}
	if pp.MemoryBytes() < 2*((200+63)/64)*32*8 {
		t.Fatalf("MemoryBytes %d lost the grown capacity", pp.MemoryBytes())
	}
}

// xorshiftWords returns n pseudo-random words from a fixed seed.
func xorshiftWords(n int, seed uint64) []uint64 {
	out := make([]uint64, n)
	x := seed | 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = x
	}
	return out
}

func TestTranspose64(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		var a [64]uint64
		copy(a[:], xorshiftWords(64, seed))
		orig := a
		transpose64(&a)
		for r := 0; r < 64; r++ {
			for c := 0; c < 64; c++ {
				if a[c]>>uint(r)&1 != orig[r]>>uint(c)&1 {
					t.Fatalf("seed %d: entry (%d,%d) not transposed", seed, r, c)
				}
			}
		}
		transpose64(&a)
		if a != orig {
			t.Fatalf("seed %d: transposing twice is not the identity", seed)
		}
	}
}

// TestSetBlockRowsRoundTrip writes random pair-major rows through
// SetBlockRows, full and partial blocks, over dirty planes, and reads
// every pair back through PairInto: each bit must come back, and lanes
// past the batch must read zero.
func TestSetBlockRowsRoundTrip(t *testing.T) {
	for _, tc := range []struct{ inputs, n int }{{1, 1}, {64, 64}, {65, 130}, {207, 300}, {300, 63}} {
		var pp PackedPairs
		pp.Reset(tc.inputs, tc.n)
		for i := range pp.In1 {
			pp.In1[i], pp.In2[i] = ^uint64(0), ^uint64(0)
		}
		w := pp.RowWords()
		rows1 := xorshiftWords(pp.Blocks()*64*w, uint64(tc.inputs))
		rows2 := xorshiftWords(pp.Blocks()*64*w, uint64(tc.n))
		for b := 0; b < pp.Blocks(); b++ {
			lanes := min(tc.n-64*b, 64)
			lo, hi := b*64*w, (b*64+lanes)*w
			pp.SetBlockRows(b, rows1[lo:hi], rows2[lo:hi])
		}
		v1 := make([]bool, tc.inputs)
		v2 := make([]bool, tc.inputs)
		for i := 0; i < tc.n; i++ {
			pp.PairInto(i, v1, v2)
			for j := 0; j < tc.inputs; j++ {
				w1 := rows1[i*w+j/64]>>uint(j%64)&1 != 0
				w2 := rows2[i*w+j/64]>>uint(j%64)&1 != 0
				if v1[j] != w1 || v2[j] != w2 {
					t.Fatalf("%d inputs, %d pairs: pair %d input %d is (%v,%v), row has (%v,%v)",
						tc.inputs, tc.n, i, j, v1[j], v2[j], w1, w2)
				}
			}
		}
		if lanes := tc.n % 64; lanes != 0 {
			in1, in2, _ := pp.Block(pp.Blocks() - 1)
			for j := range in1 {
				if (in1[j]|in2[j])>>uint(lanes) != 0 {
					t.Fatalf("%d inputs, %d pairs: lanes past the batch set at input %d", tc.inputs, tc.n, j)
				}
			}
		}
	}
}

func TestBlockRowsReuses(t *testing.T) {
	var pp PackedPairs
	pp.Reset(207, 300)
	r1, r2 := pp.BlockRows()
	if len(r1) != 64*4 || len(r2) != 64*4 {
		t.Fatalf("BlockRows lengths %d/%d, want %d", len(r1), len(r2), 64*4)
	}
	if cap(r1) != len(r1) || cap(r2) != len(r2) {
		t.Fatal("BlockRows halves can grow into each other")
	}
	allocs := testing.AllocsPerRun(10, func() {
		pp.Reset(207, 300)
		pp.BlockRows()
	})
	if allocs != 0 {
		t.Fatalf("BlockRows at steady state allocated %v times", allocs)
	}
}
