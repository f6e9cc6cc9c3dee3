package vectorgen

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// refGenerate draws one pair of a built-in generator with the []bool
// bodies those generators had before they drew pair-major bit rows. It
// is the reference of the RNG draw-order invariant: every population,
// streaming batch and checkpoint must stay bit-identical to it.
func refGenerate(g Generator, rng *stats.RNG) Pair {
	randomVector := func(n int) []bool {
		v := make([]bool, n)
		var bits uint64
		for i := range v {
			if i%64 == 0 {
				bits = rng.Uint64()
			}
			v[i] = bits&1 != 0
			bits >>= 1
		}
		return v
	}
	flip := func(v1 []bool, prob func(i int) float64) []bool {
		v2 := make([]bool, len(v1))
		for i, b := range v1 {
			if rng.Bool(prob(i)) {
				v2[i] = !b
			} else {
				v2[i] = b
			}
		}
		return v2
	}
	switch g := g.(type) {
	case Uniform:
		return Pair{V1: randomVector(g.N), V2: randomVector(g.N)}
	case HighActivity:
		lo := g.MinActivity
		if lo < 0 {
			lo = 0
		}
		if lo > 1 {
			lo = 1
		}
		skew := g.Skew
		if skew <= 0 {
			skew = DefaultActivitySkew
		}
		act := lo + (1-lo)*math.Pow(rng.Float64(), skew)
		v1 := randomVector(g.N)
		return Pair{V1: v1, V2: flip(v1, func(int) float64 { return act })}
	case Constrained:
		v1 := randomVector(len(g.Probs))
		return Pair{V1: v1, V2: flip(v1, func(i int) float64 { return g.Probs[i] })}
	case Grouped:
		if err := g.Validate(); err != nil {
			panic(err)
		}
		v1 := randomVector(g.N)
		v2 := append([]bool(nil), v1...)
		grouped := make([]bool, g.N)
		for gi, grp := range g.Groups {
			flip := rng.Bool(g.Probs[gi])
			for _, i := range grp {
				grouped[i] = true
				if flip {
					v2[i] = !v2[i]
				}
			}
		}
		for i := range v2 {
			if !grouped[i] && rng.Bool(g.Default) {
				v2[i] = !v2[i]
			}
		}
		return Pair{V1: v1, V2: v2}
	}
	panic("refGenerate: not a built-in generator: " + g.Name())
}

// checkAgainstReference draws n pairs from g three ways — GeneratePacked,
// Generate, and the reference []bool bodies — from one seed, and fails
// unless all three give the same bits and leave the same RNG state.
func checkAgainstReference(t *testing.T, g Generator, n int, seed uint64) {
	t.Helper()
	inputs := g.Inputs()
	refRNG := stats.NewRNG(seed)
	var want sim.PackedPairs
	want.Reset(inputs, n)
	for i := 0; i < n; i++ {
		p := refGenerate(g, refRNG)
		want.SetPair(i, p.V1, p.V2)
	}

	packedRNG := stats.NewRNG(seed)
	var got sim.PackedPairs
	got.Reset(inputs, n)
	GeneratePacked(g, packedRNG, &got)
	for k := range want.In1 {
		if got.In1[k] != want.In1[k] || got.In2[k] != want.In2[k] {
			t.Fatalf("%s, %d inputs, %d pairs, seed %d: plane word %d is (%#x,%#x), reference (%#x,%#x)",
				g.Name(), inputs, n, seed, k, got.In1[k], got.In2[k], want.In1[k], want.In2[k])
		}
	}
	if packedRNG.State() != refRNG.State() {
		t.Fatalf("%s, %d inputs, %d pairs, seed %d: GeneratePacked consumed the RNG differently",
			g.Name(), inputs, n, seed)
	}

	genRNG := stats.NewRNG(seed)
	v1 := make([]bool, inputs)
	v2 := make([]bool, inputs)
	for i := 0; i < n; i++ {
		p := g.Generate(genRNG)
		want.PairInto(i, v1, v2)
		for j := 0; j < inputs; j++ {
			if p.V1[j] != v1[j] || p.V2[j] != v2[j] {
				t.Fatalf("%s, seed %d: Generate pair %d input %d is (%v,%v), reference (%v,%v)",
					g.Name(), seed, i, j, p.V1[j], p.V2[j], v1[j], v2[j])
			}
		}
	}
	if genRNG.State() != refRNG.State() {
		t.Fatalf("%s, seed %d: Generate consumed the RNG differently", g.Name(), seed)
	}
}

// TestGeneratePackedMatchesGenerate pins the RNG draw-order invariant:
// for every built-in generator, packing n pairs into bit planes and n
// Generate calls both consume the RNG exactly as the reference []bool
// bodies and yield the same bits. This is the foundation of the packed
// pipeline's bit-identity to the historical []bool path.
func TestGeneratePackedMatchesGenerate(t *testing.T) {
	const inputs, n = 70, 150
	for _, g := range builtinGenerators(inputs) {
		checkAgainstReference(t, g, n, 42)
	}
}

func builtinGenerators(inputs int) []Generator {
	return []Generator{
		Uniform{N: inputs},
		HighActivity{N: inputs, MinActivity: 0.3},
		HighActivity{N: inputs, MinActivity: 0.6, Skew: 1},
		ConstantActivity(inputs, 0.7),
		Grouped{
			N:       inputs,
			Groups:  [][]int{{0, 1, 2}, {10, 40, 69}},
			Probs:   []float64{0.9, 0.2},
			Default: 0.5,
		},
	}
}

// FuzzGeneratePacked checks the draw-order invariant over input widths
// 1–300, batches of 1–200 pairs (so partial 64-pair blocks), seeds, and
// activities and probabilities that include 0, 1, subnormals, 2⁻⁵³ and
// NaN: GeneratePacked and Generate must match the reference []bool
// bodies bit for bit, RNG end state included, for every built-in
// generator.
func FuzzGeneratePacked(f *testing.F) {
	const tiny = 5e-324 // the smallest subnormal
	for _, c := range []struct {
		width, pairs uint16
		seed         uint64
		act, prob    float64
		skew         float64
		mix          uint64
	}{
		{1, 1, 1, 0.3, 0.5, 0, 0},
		{36, 300, 2, 0.3, 0.7, 4, 1},
		{64, 64, 3, 0, 1, 1, 2},
		{65, 63, 4, 1, 0, 2, 3},
		{70, 150, 42, 0.6, 0.2, 1, 4},
		{128, 65, 5, tiny, tiny, 0.5, 5},
		{207, 129, 6, 0x1p-53, 0x1p-53, 3, 6},
		{300, 200, 7, math.NaN(), math.NaN(), math.NaN(), 7},
		{299, 17, 8, 1 - 0x1p-53, math.Inf(1), math.Inf(1), 8},
		{5, 3, 9, -1, math.Inf(-1), -2, 9},
	} {
		f.Add(c.width, c.pairs, c.seed, c.act, c.prob, c.skew, c.mix)
	}
	f.Fuzz(func(t *testing.T, width, pairs uint16, seed uint64, act, prob, skew float64, mix uint64) {
		n := 1 + int(width)%300
		count := 1 + int(pairs)%200
		pick := stats.NewRNG(mix)
		palette := []float64{0, 1, act, prob, tiny, 0x1p-53, 0.5, math.NaN()}
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = palette[pick.Intn(len(palette))]
		}
		gens := []Generator{
			Uniform{N: n},
			HighActivity{N: n, MinActivity: act, Skew: skew},
			Constrained{Probs: probs},
		}
		// A Grouped generator over disjoint random groups; the reference
		// panics on the shapes Validate rejects, so those are left out.
		g := Grouped{N: n, Default: prob}
		perm := pick.Perm(n)
		for len(perm) > 0 && len(g.Groups) < 4 {
			k := 1 + pick.Intn(len(perm))
			g.Groups = append(g.Groups, perm[:k])
			g.Probs = append(g.Probs, palette[pick.Intn(len(palette))])
			perm = perm[k:]
		}
		if g.Validate() == nil {
			gens = append(gens, g)
		}
		for _, g := range gens {
			checkAgainstReference(t, g, count, seed)
		}
	})
}

// oddGenerator is a Generator without a row draw routine,
// standing in for user-supplied generators: GeneratePacked must fall back
// to Generate + SetPair with identical bits and RNG stream.
type oddGenerator struct{ n int }

func (o oddGenerator) Name() string { return "odd" }
func (o oddGenerator) Inputs() int  { return o.n }
func (o oddGenerator) Generate(rng *stats.RNG) Pair {
	v1 := make([]bool, o.n)
	v2 := make([]bool, o.n)
	for i := range v1 {
		v1[i] = rng.Bool(0.25)
		v2[i] = !v1[i]
	}
	return Pair{V1: v1, V2: v2}
}

func TestGeneratePackedFallbackAdapter(t *testing.T) {
	const inputs, n = 37, 90
	g := oddGenerator{n: inputs}
	scalarRNG := stats.NewRNG(7)
	packedRNG := stats.NewRNG(7)
	var pp sim.PackedPairs
	pp.Reset(inputs, n)
	GeneratePacked(g, packedRNG, &pp)
	v1 := make([]bool, inputs)
	v2 := make([]bool, inputs)
	for i := 0; i < n; i++ {
		want := g.Generate(scalarRNG)
		pp.PairInto(i, v1, v2)
		for j := 0; j < inputs; j++ {
			if v1[j] != want.V1[j] || v2[j] != want.V2[j] {
				t.Fatalf("pair %d input %d mismatch", i, j)
			}
		}
	}
	if scalarRNG.State() != packedRNG.State() {
		t.Fatal("fallback adapter consumed the RNG differently")
	}
}

// TestSampleBatchPackedDeterminism is the packed-pipeline determinism
// matrix of the ISSUE: on the zero, fanout, and table delay models, the
// packed SampleBatch must be bit-identical across worker counts (1 vs 8)
// and bit-identical to the scalar SamplePower oracle for the same seed.
func TestSampleBatchPackedDeterminism(t *testing.T) {
	c := bench.MustGenerate("C880")
	gen := HighActivity{N: c.NumInputs(), MinActivity: 0.3}
	models := []delay.Model{delay.Zero{}, delay.FanoutLoaded{}, delay.StandardTable()}
	const batch = multiStripePairs
	for _, m := range models {
		eval := power.NewEvaluator(c, m, power.Params{})
		newSrc := func(workers int) *StreamSource {
			src, err := NewStreamSource(eval, gen)
			if err != nil {
				t.Fatal(err)
			}
			src.Workers = workers
			return src
		}
		w1 := make([]float64, batch)
		w8 := make([]float64, batch)
		scalar := make([]float64, batch)

		src1 := newSrc(1)
		src1.SampleBatch(stats.NewRNG(11), w1)
		if err := src1.BatchErr(); err != nil {
			t.Fatalf("%s: batch error %v", m.Name(), err)
		}
		src8 := newSrc(8)
		src8.SampleBatch(stats.NewRNG(11), w8)
		if err := src8.BatchErr(); err != nil {
			t.Fatalf("%s: batch error %v", m.Name(), err)
		}
		srcS := newSrc(1)
		rng := stats.NewRNG(11)
		for i := range scalar {
			scalar[i] = srcS.SamplePower(rng)
		}
		for i := 0; i < batch; i++ {
			if w1[i] != w8[i] {
				t.Fatalf("%s unit %d: workers=1 %v, workers=8 %v", m.Name(), i, w1[i], w8[i])
			}
			if w1[i] != scalar[i] {
				t.Fatalf("%s unit %d: packed %v, scalar oracle %v", m.Name(), i, w1[i], scalar[i])
			}
		}
	}
}

// TestSampleBatchZeroAlloc is the allocation guard of the sampling loop:
// the steady-state zero-delay loop — packed generation plus compiled
// stripe evaluation at Workers=1 — must allocate nothing per batch.
func TestSampleBatchZeroAlloc(t *testing.T) {
	c := bench.MustGenerate("C432")
	eval := power.NewEvaluator(c, delay.Zero{}, power.Params{})
	src, err := NewStreamSource(eval, HighActivity{N: c.NumInputs(), MinActivity: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	src.Workers = 1
	rng := stats.NewRNG(5)
	dst := make([]float64, 300)
	src.SampleBatch(rng, dst) // warm the engine, planes, and scratch
	allocs := testing.AllocsPerRun(20, func() {
		src.SampleBatch(rng, dst)
	})
	if allocs != 0 {
		t.Fatalf("steady-state SampleBatch allocated %v objects per batch, want 0", allocs)
	}
	if err := src.BatchErr(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildPackedStorageRoundTrip verifies that a KeepPairs population's
// bit-plane store reproduces exactly the pairs the generator drew, and
// that the packed footprint stays well under the []bool equivalent.
func TestBuildPackedStorageRoundTrip(t *testing.T) {
	c := bench.MustGenerate("C432")
	eval := power.NewEvaluator(c, delay.Zero{}, power.Params{})
	gen := Uniform{N: c.NumInputs()}
	pop, err := Build(eval, gen, Options{Size: 257, Seed: 13, KeepPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(13)
	for i := 0; i < pop.Size(); i++ {
		want := gen.Generate(rng)
		got := pop.Pair(i)
		for j := range want.V1 {
			if got.V1[j] != want.V1[j] || got.V2[j] != want.V2[j] {
				t.Fatalf("pair %d input %d mismatch", i, j)
			}
		}
	}
	boolBytes := pop.Size() * c.NumInputs() * 2 // two []bool payloads per pair
	if pb := pop.PairBytes(); pb == 0 || pb*4 > boolBytes {
		t.Fatalf("packed pairs use %d bytes; []bool equivalent %d — want ≥4× smaller", pb, boolBytes)
	}
}
