package vectorgen

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/power"
	"repro/internal/stats"
)

func TestUniformGenerator(t *testing.T) {
	g := Uniform{N: 64}
	rng := stats.NewRNG(1)
	var actSum float64
	const draws = 2000
	for i := 0; i < draws; i++ {
		p := g.Generate(rng)
		if len(p.V1) != 64 || len(p.V2) != 64 {
			t.Fatal("wrong width")
		}
		actSum += p.Activity()
	}
	// Independent uniform vectors → expected activity 1/2.
	if mean := actSum / draws; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("uniform mean activity = %v", mean)
	}
	if g.Inputs() != 64 || g.Name() != "uniform" {
		t.Error("metadata")
	}
}

func TestHighActivityGenerator(t *testing.T) {
	g := HighActivity{N: 100, MinActivity: 0.3, Skew: 1}
	rng := stats.NewRNG(2)
	var actSum float64
	const draws = 3000
	low := 0
	for i := 0; i < draws; i++ {
		p := g.Generate(rng)
		a := p.Activity()
		actSum += a
		if a < 0.15 { // binomial noise below the 0.3 floor is rare at n=100
			low++
		}
	}
	mean := actSum / draws
	// Skew=1: per-pair activity ~ U(0.3, 1) → mean 0.65.
	if math.Abs(mean-0.65) > 0.03 {
		t.Errorf("high-activity mean = %v, want ≈ 0.65", mean)
	}
	if low > draws/100 {
		t.Errorf("%d pairs far below the activity floor", low)
	}
}

func TestHighActivityDefaultSkew(t *testing.T) {
	// Default Skew = 4: a = 0.3 + 0.7·u⁴ → E[a] = 0.3 + 0.7/5 = 0.44, and
	// near-maximal activities are 4x rarer than under the uniform mixture.
	g := HighActivity{N: 100, MinActivity: 0.3}
	rng := stats.NewRNG(21)
	var actSum float64
	high := 0
	const draws = 6000
	for i := 0; i < draws; i++ {
		a := g.Generate(rng).Activity()
		actSum += a
		if a > 0.93 { // activity parameter above ~0.965
			high++
		}
	}
	if mean := actSum / draws; math.Abs(mean-0.44) > 0.03 {
		t.Errorf("default-skew mean activity = %v, want ≈ 0.44", mean)
	}
	// P(a > 0.965) = P(u⁴ > 0.95) ≈ 1.3%; allow generous binomial slack.
	if frac := float64(high) / draws; frac > 0.035 {
		t.Errorf("high-activity fraction %v too large for skewed mixture", frac)
	}
}

func TestConstrainedGenerator(t *testing.T) {
	for _, act := range []float64{0.3, 0.7} {
		g := ConstantActivity(80, act)
		rng := stats.NewRNG(3)
		var actSum float64
		const draws = 3000
		for i := 0; i < draws; i++ {
			actSum += g.Generate(rng).Activity()
		}
		if mean := actSum / draws; math.Abs(mean-act) > 0.02 {
			t.Errorf("constrained(%v) mean activity = %v", act, mean)
		}
	}
}

func TestConstrainedPerInputProbability(t *testing.T) {
	probs := []float64{0, 1, 0.5, 0.25}
	g := Constrained{Probs: probs}
	rng := stats.NewRNG(4)
	flips := make([]int, len(probs))
	const draws = 20000
	for i := 0; i < draws; i++ {
		p := g.Generate(rng)
		for j := range probs {
			if p.V1[j] != p.V2[j] {
				flips[j]++
			}
		}
	}
	for j, pr := range probs {
		got := float64(flips[j]) / draws
		if math.Abs(got-pr) > 0.02 {
			t.Errorf("input %d flip rate = %v, want %v", j, got, pr)
		}
	}
}

func TestConstantActivityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ConstantActivity(4, 1.5)
}

func TestGroupedGenerator(t *testing.T) {
	g := Grouped{
		N:       6,
		Groups:  [][]int{{0, 1, 2}, {3, 4}},
		Probs:   []float64{0.5, 1.0},
		Default: 0,
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	for i := 0; i < 1000; i++ {
		p := g.Generate(rng)
		// Within a group, all flip or none.
		f0 := p.V1[0] != p.V2[0]
		if (p.V1[1] != p.V2[1]) != f0 || (p.V1[2] != p.V2[2]) != f0 {
			t.Fatal("group 0 not jointly transitioning")
		}
		// Group 1 has probability 1: always flips.
		if p.V1[3] == p.V2[3] || p.V1[4] == p.V2[4] {
			t.Fatal("group 1 did not flip")
		}
		// Ungrouped input 5 has Default = 0: never flips.
		if p.V1[5] != p.V2[5] {
			t.Fatal("ungrouped input flipped with Default=0")
		}
	}
}

func TestGroupedValidate(t *testing.T) {
	bad := []Grouped{
		{N: 4, Groups: [][]int{{0}}, Probs: nil},
		{N: 4, Groups: [][]int{{}}, Probs: []float64{0.5}},
		{N: 4, Groups: [][]int{{9}}, Probs: []float64{0.5}},
		{N: 4, Groups: [][]int{{0}, {0}}, Probs: []float64{0.5, 0.5}},
		{N: 4, Groups: [][]int{{0}}, Probs: []float64{1.5}},
		{N: 4, Groups: [][]int{{0}}, Probs: []float64{0.5}, Default: -1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid Grouped accepted", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g := HighActivity{N: 32, MinActivity: 0.3}
	a := g.Generate(stats.NewRNG(77))
	b := g.Generate(stats.NewRNG(77))
	for i := range a.V1 {
		if a.V1[i] != b.V1[i] || a.V2[i] != b.V2[i] {
			t.Fatal("generator not deterministic in seed")
		}
	}
}

func buildSmallPopulation(t *testing.T, keep bool) *Population {
	t.Helper()
	c := bench.MustGenerate("C432")
	eval := power.NewEvaluator(c, delay.FanoutLoaded{}, power.Params{})
	pop, err := Build(eval, HighActivity{N: c.NumInputs(), MinActivity: 0.3},
		Options{Size: 500, Seed: 9, Workers: 4, KeepPairs: keep})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestBuildPopulation(t *testing.T) {
	pop := buildSmallPopulation(t, true)
	if pop.Size() != 500 {
		t.Fatalf("size = %d", pop.Size())
	}
	max := pop.TrueMax()
	if max <= 0 {
		t.Fatal("non-positive max power")
	}
	if pop.Power(pop.TrueMaxIndex()) != max {
		t.Error("TrueMaxIndex inconsistent")
	}
	if pop.MeanPower() <= 0 || pop.MeanPower() > max {
		t.Errorf("mean %v vs max %v", pop.MeanPower(), max)
	}
	for i := 0; i < pop.Size(); i++ {
		if pop.Power(i) > max {
			t.Fatal("power above maximum")
		}
	}
	if !pop.HasPairs() {
		t.Fatal("KeepPairs ignored")
	}
	if p := pop.Pair(0); len(p.V1) != 36 {
		t.Errorf("pair width %d", len(p.V1))
	}
}

func TestBuildDeterministicAcrossWorkerCounts(t *testing.T) {
	c := bench.MustGenerate("C432")
	eval := power.NewEvaluator(c, delay.FanoutLoaded{}, power.Params{})
	gen := HighActivity{N: c.NumInputs(), MinActivity: 0.3}
	p1, err := Build(eval, gen, Options{Size: multiStripePairs, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p8, err := Build(eval, gen, Options{Size: multiStripePairs, Seed: 11, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < multiStripePairs; i++ {
		if p1.Power(i) != p8.Power(i) {
			t.Fatalf("unit %d differs between worker counts", i)
		}
	}
}

func TestBuildZeroDelayBatchPathMatchesSerial(t *testing.T) {
	// Populations built under the zero-delay model go through the compiled
	// settle kernel; every unit must equal the serial evaluation.
	c := bench.MustGenerate("C432")
	eval := power.NewEvaluator(c, delay.Zero{}, power.Params{})
	gen := HighActivity{N: c.NumInputs(), MinActivity: 0.3}
	pop, err := Build(eval, gen, Options{Size: 333, Seed: 17, KeepPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	serial := eval.Clone()
	for i := 0; i < pop.Size(); i++ {
		p := pop.Pair(i)
		if want := serial.CyclePowerMW(p.V1, p.V2); pop.Power(i) != want {
			t.Fatalf("unit %d: batch %v serial %v", i, pop.Power(i), want)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	c := bench.MustGenerate("C432")
	eval := power.NewEvaluator(c, delay.FanoutLoaded{}, power.Params{})
	if _, err := Build(eval, Uniform{N: 5}, Options{Size: 10}); err == nil {
		t.Error("width mismatch accepted")
	}
	if _, err := Build(eval, Uniform{N: c.NumInputs()}, Options{Size: 0}); err == nil {
		t.Error("zero size accepted")
	}
}

func TestQualifiedFraction(t *testing.T) {
	pop := FromPowers("test", []float64{1, 2, 3, 9.6, 9.8, 10})
	// eps=0.05: threshold 9.5 → 3 of 6 qualify.
	if got := pop.QualifiedFraction(0.05); got != 0.5 {
		t.Errorf("Y = %v, want 0.5", got)
	}
	// eps=0: only the max itself.
	if got := pop.QualifiedFraction(0); !almostEq(got, 1.0/6) {
		t.Errorf("Y(0) = %v", got)
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestFromPowersAndSampling(t *testing.T) {
	pop := FromPowers("t", []float64{5, 1, 3})
	if pop.TrueMax() != 5 || pop.Size() != 3 {
		t.Fatal("census wrong")
	}
	rng := stats.NewRNG(13)
	seen := make(map[float64]int)
	for i := 0; i < 3000; i++ {
		seen[pop.SamplePower(rng)]++
	}
	for _, v := range []float64{5, 1, 3} {
		if seen[v] < 800 {
			t.Errorf("value %v sampled only %d times", v, seen[v])
		}
	}
	if pop.HasPairs() {
		t.Error("FromPowers should not claim pairs")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Pair() without pairs did not panic")
			}
		}()
		pop.Pair(0)
	}()
}

func TestFromPowersEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromPowers("empty", nil)
}

func TestPopulationECDF(t *testing.T) {
	pop := FromPowers("t", []float64{1, 2, 3, 4})
	e := pop.ECDF()
	if e.CDF(2.5) != 0.5 {
		t.Errorf("ECDF(2.5) = %v", e.CDF(2.5))
	}
}

func TestPopulationPowerDistributionShape(t *testing.T) {
	// The power distribution must be bounded with a thin upper tail —
	// the qualitative property the EVT method relies on.
	pop := buildSmallPopulation(t, false)
	y := pop.QualifiedFraction(0.05)
	if y <= 0 {
		t.Fatal("no qualified units at all")
	}
	if y > 0.25 {
		t.Errorf("qualified fraction %v too fat for a max-power tail", y)
	}
	if pop.MeanPower() > 0.9*pop.TrueMax() {
		t.Errorf("mean %v too close to max %v", pop.MeanPower(), pop.TrueMax())
	}
}
