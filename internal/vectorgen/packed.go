package vectorgen

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// rowGenerator is a Generator with a pair-major draw routine: drawRows
// writes one pair as two bit rows r1 and r2 of ⌈Inputs/64⌉ words each,
// input i at bit i%64 of word i/64 (sim.PackedPairs.RowWords), the
// layout in which a uniform vector comes out of the RNG. Bits past
// Inputs are unspecified. Every built-in generator has exactly this one
// draw routine; its Generate unpacks the same rows.
//
// RNG draw-order invariant: drawRows consumes the RNG exactly as the
// generator's historical []bool Generate did: one Uint64 per 64 inputs
// of a uniform vector, then the per-input flip draws in input order, one
// Bool draw each. That keeps every population, streaming batch and
// checkpoint bit-identical to earlier releases; the tests pin it against
// those []bool bodies, kept there as the reference.
type rowGenerator interface {
	Generator
	drawRows(rng *stats.RNG, r1, r2 []uint64)
}

// GeneratePacked fills pp with n = pp.N pairs drawn sequentially from
// gen — the packed twin of n Generate calls, consuming the RNG
// identically (pair by pair, each pair's draws in Generate's order). pp
// must have been Reset to gen.Inputs() width. Built-in generators draw
// each 64-pair block as rows into pp's row scratch, and one bit-matrix
// transpose per 64 inputs moves the block into the planes, with zero
// heap allocations once the scratch exists (Grouped excepted, see its
// drawRows). Any other Generator is adapted through Generate + SetPair
// (same bits, same RNG stream, two transient slices per pair).
func GeneratePacked(gen Generator, rng *stats.RNG, pp *sim.PackedPairs) {
	if gen.Inputs() != pp.Inputs {
		panic(fmt.Sprintf("vectorgen: %d-input generator for a %d-input batch", gen.Inputs(), pp.Inputs))
	}
	rg, ok := gen.(rowGenerator)
	if !ok {
		for i := 0; i < pp.N; i++ {
			p := gen.Generate(rng)
			pp.SetPair(i, p.V1, p.V2)
		}
		return
	}
	w := pp.RowWords()
	r1, r2 := pp.BlockRows()
	for b := 0; b < pp.Blocks(); b++ {
		lanes := min(pp.N-64*b, 64)
		for l := 0; l < lanes; l++ {
			rg.drawRows(rng, r1[l*w:(l+1)*w], r2[l*w:(l+1)*w])
		}
		pp.SetBlockRows(b, r1, r2)
	}
}
