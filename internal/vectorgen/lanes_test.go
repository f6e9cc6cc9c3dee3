package vectorgen

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// minDrawsHere is the lane threshold GeneratePacked uses on this host.
func minDrawsHere() uint64 {
	if stats.LaneKernel() {
		return laneMinDraws
	}
	return noLanes
}

// firstPlaneDiff returns the first plane word where a and b differ, or
// −1.
func firstPlaneDiff(a, b *sim.PackedPairs) int {
	for k := range b.In1 {
		if a.In1[k] != b.In1[k] || a.In2[k] != b.In2[k] {
			return k
		}
	}
	return -1
}

// laneGenerators returns the generators that draw on lanes at width n,
// Constrained with per-input probabilities that include 0, 1 and 2⁻⁵³.
func laneGenerators(n int) []Generator {
	probs := make([]float64, n)
	palette := []float64{0.7, 0, 1, 0x1p-53, 0.3, 0.5}
	for i := range probs {
		probs[i] = palette[i%len(palette)]
	}
	return []Generator{
		Uniform{N: n},
		HighActivity{N: n, MinActivity: 0.3},
		Constrained{Probs: probs},
	}
}

// TestGeneratePackedLanesMatchSerial holds the lane driver to the
// serial loop, the reference that checkAgainstReference pins to the
// historical []bool bodies: every chunk drawn on lanes must give the
// planes, and leave the RNG in the state, of drawing pair by pair, for
// Uniform, HighActivity and Constrained at every width from 1 to 300,
// at batch sizes on both sides of an empty last lane (49, 50), of the
// cut-over (63–65) and of the chunk boundary (511–513, 1,025), and at a
// population's size.
func TestGeneratePackedLanesMatchSerial(t *testing.T) {
	t.Logf("lane kernel: %v; GeneratePacked draws chunks of %d draws or more on lanes", stats.LaneKernel(), minDrawsHere())
	sizes := []int{49, 50, 63, 64, 65, 511, 512, 513, 1025}
	check := func(g Generator, n int, seed uint64) {
		t.Helper()
		serialRNG, lanesRNG := stats.NewRNG(seed), stats.NewRNG(seed)
		var serial, lanes sim.PackedPairs
		serial.Reset(g.Inputs(), n)
		lanes.Reset(g.Inputs(), n)
		generatePacked(g, serialRNG, &serial, noLanes)
		generatePacked(g, lanesRNG, &lanes, 0)
		if k := firstPlaneDiff(&lanes, &serial); k >= 0 {
			t.Fatalf("%s, %d inputs, %d pairs: plane word %d differs on lanes", g.Name(), g.Inputs(), n, k)
		}
		if lanesRNG.State() != serialRNG.State() {
			t.Fatalf("%s, %d inputs, %d pairs: lanes left the RNG in another state", g.Name(), g.Inputs(), n)
		}
	}
	for width := 1; width <= 300; width++ {
		for _, g := range laneGenerators(width) {
			check(g, sizes[width%len(sizes)], uint64(width))
		}
	}
	for _, width := range []int{1, 36, 50, 64, 65, 207, 300} {
		for _, g := range laneGenerators(width) {
			for _, n := range sizes {
				check(g, n, uint64(width*n))
			}
		}
	}
	for _, g := range laneGenerators(36) {
		check(g, 5000, 9) // nine full chunks and one of 392 pairs
	}
}

// BenchmarkGeneratePacked times GeneratePacked on 300-pair batches, one
// hyper-sample's worth, for the generators that draw on lanes, at the
// widths of C432 (36 inputs), C3540 (50) and C7552 (207), against the
// serial loop, and reports ns per pair.
func BenchmarkGeneratePacked(b *testing.B) {
	b.Logf("lane kernel: %v", stats.LaneKernel())
	const pairs = 300
	for _, width := range []int{36, 50, 207} {
		for _, g := range laneGenerators(width) {
			for _, path := range []struct {
				name     string
				minDraws uint64
			}{{"GeneratePacked", minDrawsHere()}, {"serial", noLanes}} {
				name := fmt.Sprintf("%s/%d/%s", g.Name(), width, path.name)
				b.Run(name, func(b *testing.B) {
					rng := stats.NewRNG(1)
					var pp sim.PackedPairs
					pp.Reset(width, pairs)
					for i := 0; i < b.N; i++ {
						generatePacked(g, rng, &pp, path.minDraws)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
				})
			}
		}
	}
}

// BenchmarkLaneCutover times one chunk drawn serially and on lanes, for
// each generator at chunk sizes on both sides of laneMinDraws: the
// measurement that sets it (DESIGN.md §18). Each name gives the draws
// the chunk takes.
func BenchmarkLaneCutover(b *testing.B) {
	b.Logf("lane kernel: %v", stats.LaneKernel())
	for _, c := range []struct {
		width int
		pairs []int
	}{{1, []int{64, 128, 256, 512}}, {36, []int{4, 8, 16, 32, 64, 128, 256, 512}}, {207, []int{2, 4, 8, 16, 32, 64}}} {
		for _, g := range laneGenerators(c.width) {
			lg := g.(laneGenerator)
			for _, pairs := range c.pairs {
				for _, path := range []struct {
					name     string
					minDraws uint64
				}{{"lanes", 0}, {"serial", noLanes}} {
					name := fmt.Sprintf("%s/%d/%dpairs/%ddraws/%s", g.Name(), c.width, pairs, uint64(pairs)*lg.pairDraws(), path.name)
					b.Run(name, func(b *testing.B) {
						rng := stats.NewRNG(1)
						var pp sim.PackedPairs
						pp.Reset(c.width, pairs)
						for i := 0; i < b.N; i++ {
							generatePacked(g, rng, &pp, path.minDraws)
						}
					})
				}
			}
		}
	}
}
