package vectorgen

import (
	"fmt"
	"math"

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

// laneGenerator is a rowGenerator whose pairs all take the same number
// of draws, pairDraws, and which can draw eight pairs at once on
// stats.Lanes. drawLanes makes steps from…to−1 of a chunk whose lanes
// each take run pairs: at step j, lane l makes exactly the draws
// drawRows makes for pair l·run + j and writes that pair's rows, w
// words each, at row l·run + j of r1 and r2. It takes and returns the
// lanes by value, which keeps them on the caller's stack.
type laneGenerator interface {
	rowGenerator
	pairDraws() uint64
	drawLanes(ls stats.Lanes, r1, r2 []uint64, w, run, from, to int) stats.Lanes
}

// laneMinDraws is the fewest draws a chunk takes to be drawn on lanes.
// Below it the jump that starts the lanes (about 0.7 µs) costs more
// than drawing serially saves. The saving per draw differs by
// generator; the constant is HighActivity's break-even, measured in
// DESIGN.md §18.
const laneMinDraws = 1024

// noLanes, as generatePacked's lane threshold, draws every chunk
// serially.
const noLanes = math.MaxUint64

// GeneratePacked fills pp with n = pp.N pairs drawn from gen — the
// packed twin of n Generate calls: the same bits, and the RNG left in
// the same state. pp must have been Reset to gen.Inputs() width.
// Built-in generators draw the batch in chunks of up to sim.ChunkPairs
// pairs as rows into pp's row scratch, and one bit-matrix transpose per
// 64 inputs moves each 64-pair block into the planes, with zero heap
// allocations once the scratch exists (Grouped excepted, see its
// drawRows). Where the AVX-512 lane kernel runs, Uniform, HighActivity
// and Constrained draw each chunk of at least laneMinDraws draws eight
// runs at a time on jumped-ahead lanes (drawChunkLanes); everything
// else draws pair by pair. Any other Generator is adapted through
// Generate + SetPair (same bits, same RNG stream, two transient slices
// per pair).
func GeneratePacked(gen Generator, rng *stats.RNG, pp *sim.PackedPairs) {
	var minDraws uint64 = noLanes
	if stats.LaneKernel() {
		minDraws = laneMinDraws
	}
	generatePacked(gen, rng, pp, minDraws)
}

// generatePacked is GeneratePacked drawing the chunks that take at
// least minDraws draws on lanes; the tests call it with 0 and noLanes to
// hold the two paths to each other on any host.
func generatePacked(gen Generator, rng *stats.RNG, pp *sim.PackedPairs, minDraws uint64) {
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
	lg, lanes := rg.(laneGenerator)
	w := pp.RowWords()
	r1, r2 := pp.BlockRows()
	for c0 := 0; c0 < pp.N; c0 += sim.ChunkPairs {
		c := min(pp.N-c0, sim.ChunkPairs)
		if lanes && uint64(c)*lg.pairDraws() >= minDraws {
			drawChunkLanes(lg, rng, r1, r2, w, c)
		} else {
			for q := 0; q < c; q++ {
				rg.drawRows(rng, r1[q*w:(q+1)*w], r2[q*w:(q+1)*w])
			}
		}
		for b := 0; 64*b < c; b++ {
			pp.SetBlockRows(c0/64+b, r1[64*b*w:], r2[64*b*w:])
		}
	}
}

// drawChunkLanes draws a chunk of c ≤ sim.ChunkPairs pairs into rows
// r1 and r2 (w words a row) on eight lanes. Lane l takes the l-th run of
// ⌈c/8⌉ consecutive pairs and starts from rng jumped ahead to that
// run's first draw, so every pair gets the draws the serial loop would
// give it; step j draws the j-th pair of every run. When c is not a
// multiple of 8 the runs that reach past the last pair are short or
// empty, and their lanes draw rows past the chunk that nothing reads
// (8·⌈c/8⌉ ≤ sim.ChunkPairs rows in all). rng ends in the state the
// serial loop leaves: that of the last non-empty lane after its last
// pair.
func drawChunkLanes(g laneGenerator, rng *stats.RNG, r1, r2 []uint64, w, c int) {
	run := (c + 7) / 8
	last := (c - 1) / run // the last non-empty lane
	lastPairs := c - last*run
	var ls stats.Lanes
	ls.Start(rng, uint64(run)*g.pairDraws())
	ls = g.drawLanes(ls, r1, r2, w, run, 0, lastPairs)
	rng.SetState(ls.State(last))
	if lastPairs < run {
		g.drawLanes(ls, r1, r2, w, run, lastPairs, run)
	}
}
