package sim

import "fmt"

// PackedPairs is a batch of vector pairs in bit-plane form — the native
// currency of the sampling pipeline. Pairs are grouped into blocks of 64
// lanes; within block b, plane word In1[b*Inputs+i] carries primary input
// i across the block's 64 lanes, bit l holding pair (64b+l)'s first
// vector at input i (In2 likewise for the second vector). The compiled
// executors load a stripe's input words straight from these planes, with
// no per-call transpose or [][]bool materialization.
//
// Unused lanes of a partial final block stay zero in both planes, which
// the engines treat as inert (identical vectors toggle nothing).
//
// A PackedPairs owns its backing arrays and is reused across batches via
// Reset; it is not safe for concurrent mutation, but distinct blocks may
// be read concurrently (the parallel evaluation engine does).
type PackedPairs struct {
	// Inputs is the vector width (words per plane per block).
	Inputs int
	// N is the number of valid pairs in the batch.
	N int
	// In1, In2 are the bit-plane arrays, Blocks()*Inputs words each.
	In1, In2 []uint64

	// rows is the pair-major row scratch BlockRows hands out: grown on
	// first use, reused by every later block and batch.
	rows []uint64
}

// Blocks returns the number of 64-lane blocks covering the batch.
func (p *PackedPairs) Blocks() int { return (p.N + 63) / 64 }

// Reset prepares the batch for inputs-wide pairs numbered 0..n-1: planes
// are grown as needed, the valid region is zeroed, and previous contents
// are discarded. It never shrinks the backing arrays, so a steady-state
// caller (one batch per hyper-sample, constant m·n) allocates only once.
func (p *PackedPairs) Reset(inputs, n int) {
	if inputs <= 0 || n < 0 {
		panic(fmt.Sprintf("sim: PackedPairs.Reset(%d, %d)", inputs, n))
	}
	p.Inputs = inputs
	p.N = n
	words := ((n + 63) / 64) * inputs
	if cap(p.In1) < words {
		p.In1 = make([]uint64, words)
		p.In2 = make([]uint64, words)
	}
	p.In1 = p.In1[:words]
	p.In2 = p.In2[:words]
	for i := range p.In1 {
		p.In1[i] = 0
		p.In2[i] = 0
	}
}

// Block returns block b's two planes (Inputs words each) and the number
// of valid lanes in it (64 for every block but possibly the last).
func (p *PackedPairs) Block(b int) (in1, in2 []uint64, lanes int) {
	lo := b * p.Inputs
	hi := lo + p.Inputs
	lanes = p.N - b*64
	if lanes > 64 {
		lanes = 64
	}
	return p.In1[lo:hi:hi], p.In2[lo:hi:hi], lanes
}

// SetPair packs the pair (v1, v2) into slot i. Both vectors must be
// Inputs wide. It is the [][]bool → bit-plane adapter used by callers
// whose generators cannot write planes directly.
func (p *PackedPairs) SetPair(i int, v1, v2 []bool) {
	if len(v1) != p.Inputs || len(v2) != p.Inputs {
		panic(fmt.Sprintf("sim: SetPair width %d/%d, want %d", len(v1), len(v2), p.Inputs))
	}
	base := (i / 64) * p.Inputs
	bit := uint64(1) << uint(i&63)
	for j := 0; j < p.Inputs; j++ {
		if v1[j] {
			p.In1[base+j] |= bit
		} else {
			p.In1[base+j] &^= bit
		}
		if v2[j] {
			p.In2[base+j] |= bit
		} else {
			p.In2[base+j] &^= bit
		}
	}
}

// Pair unpacks slot i into freshly allocated vectors — the bit-plane →
// [][]bool adapter for inspection paths (Population.Pair, the scalar
// fallback oracle). Not for hot loops.
func (p *PackedPairs) Pair(i int) (v1, v2 []bool) {
	if i < 0 || i >= p.N {
		panic(fmt.Sprintf("sim: pair %d out of %d", i, p.N))
	}
	v1 = make([]bool, p.Inputs)
	v2 = make([]bool, p.Inputs)
	p.PairInto(i, v1, v2)
	return v1, v2
}

// PairInto unpacks slot i into caller-provided vectors of width Inputs.
func (p *PackedPairs) PairInto(i int, v1, v2 []bool) {
	if len(v1) != p.Inputs || len(v2) != p.Inputs {
		panic(fmt.Sprintf("sim: PairInto width %d/%d, want %d", len(v1), len(v2), p.Inputs))
	}
	base := (i / 64) * p.Inputs
	shift := uint(i & 63)
	for j := 0; j < p.Inputs; j++ {
		v1[j] = p.In1[base+j]>>shift&1 != 0
		v2[j] = p.In2[base+j]>>shift&1 != 0
	}
}

// RowWords returns the width of one pair-major bit row: ⌈Inputs/64⌉
// words, input i at bit i%64 of word i/64. That is how a vector drawn as
// uniform 64-bit words is laid out, so a generator can write a pair as
// two rows and SetBlockRows turns 64 of them into a block's planes.
func (p *PackedPairs) RowWords() int { return (p.Inputs + 63) / 64 }

// BlockRows returns row scratch for one block: r1 and r2 each hold 64
// rows of RowWords words, row l at [l·RowWords, (l+1)·RowWords), for the
// first and second vectors. The scratch belongs to p, is allocated on
// first use and reused after, and its contents on return are whatever
// the previous block left there.
func (p *PackedPairs) BlockRows() (r1, r2 []uint64) {
	n := 64 * p.RowWords()
	if cap(p.rows) < 2*n {
		p.rows = make([]uint64, 2*n)
	}
	return p.rows[:n:n], p.rows[n : 2*n : 2*n]
}

// SetBlockRows writes block b's planes from pair-major rows in
// BlockRows's layout: bit i%64 of word i/64 of row l becomes bit l of
// plane word b·Inputs+i. r1 and r2 must hold at least the block's valid
// lanes' rows; lanes past them are written zero, and row bits past
// Inputs are ignored. Each 64-input column of the block is one 64×64
// bit-matrix transpose.
func (p *PackedPairs) SetBlockRows(b int, r1, r2 []uint64) {
	w := p.RowWords()
	lanes := p.N - b*64
	if lanes > 64 {
		lanes = 64
	}
	if b < 0 || lanes <= 0 || len(r1) < lanes*w || len(r2) < lanes*w {
		panic(fmt.Sprintf("sim: SetBlockRows block %d of %d pairs with %d/%d row words", b, p.N, len(r1), len(r2)))
	}
	lo := b * p.Inputs
	hi := lo + p.Inputs
	transposeRows(p.In1[lo:hi], r1, w, lanes)
	transposeRows(p.In2[lo:hi], r2, w, lanes)
}

// transposeRows fills plane (one block's words, one per input) from the
// first lanes rows of w words each, lanes past them reading as zero.
func transposeRows(plane, rows []uint64, w, lanes int) {
	var a [64]uint64
	for j := 0; j < w; j++ {
		for l := 0; l < lanes; l++ {
			a[l] = rows[l*w+j]
		}
		for l := lanes; l < 64; l++ {
			a[l] = 0
		}
		transpose64(&a)
		copy(plane[64*j:], a[:])
	}
}

// transpose64 transposes the 64×64 bit matrix whose row r is a[r], bit c
// being column c: afterwards bit r of a[c] is the former bit c of a[r].
// It swaps the off-diagonal j×j blocks for j = 32, 16, …, 1, all blocks
// of one size at once through the mask m of their low columns (Hacker's
// Delight §7-3, with bit 0 as column 0).
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000ffffffff)
	for j := 32; j != 0; j, m = j>>1, m^m<<uint(j>>1) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
	}
}

// MemoryBytes reports the backing-array footprint — the number the
// population cache sizing argument rests on (∼2·Inputs·Blocks·8 bytes,
// i.e. 2 bits per input bit versus 2 bytes on the [][]bool path), plus
// the 1024·RowWords bytes of row scratch once BlockRows has made it.
func (p *PackedPairs) MemoryBytes() int {
	return (cap(p.In1) + cap(p.In2) + cap(p.rows)) * 8
}
