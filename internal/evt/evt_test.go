package evt

import (
	"context"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/vectorgen"
	"repro/internal/weibull"
)

// betaLikePopulation builds a finite population whose power law has a thin
// upper tail: p = scale·(1 − u^a)^(1/b) style draws via transformed
// uniforms. Returns the population and its exact maximum.
func betaLikePopulation(size int, seed uint64) *vectorgen.Population {
	rng := stats.NewRNG(seed)
	powers := make([]float64, size)
	for i := range powers {
		// X = 10 − 4·U^{0.4}·(1+0.2·V): bounded above by 10, thin tail.
		u := rng.Float64()
		v := rng.Float64()
		powers[i] = 10 - 4*math.Pow(u, 0.4)*(1+0.2*v)
	}
	return vectorgen.FromPowers("beta-like", powers)
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.SampleSize != 30 || c.SamplesPerHyper != 10 {
		t.Errorf("paper defaults wrong: n=%d m=%d", c.SampleSize, c.SamplesPerHyper)
	}
	if c.Epsilon != 0.05 || c.Confidence != 0.90 {
		t.Errorf("paper defaults wrong: eps=%v l=%v", c.Epsilon, c.Confidence)
	}
}

func TestConfigValidate(t *testing.T) {
	nan := math.NaN()
	bad := []Config{
		{SamplesPerHyper: 2},
		{Epsilon: 1.5},
		{Confidence: 2},
		{Epsilon: nan},
		{Confidence: nan},
		{Epsilon: math.Inf(1)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	// Zero and negative values take the defaults.
	for _, c := range []Config{{}, {Epsilon: -1, Confidence: -1}} {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", c, err)
		}
	}
}

// TestConfigValidateSize checks the bound on a hyper-sample's size: at
// most 65,536 samples and 4,194,304 units, the product checked without
// overflow. m = 2¹⁸ samples of n = 2²² units each once passed and then
// died allocating 2⁴⁰ float64s. The budget is bounded too, at 65,536
// hyper-samples: a budget of 10¹² once passed, and a fleet plan builds
// one shard per few hyper-samples of it up front.
func TestConfigValidateSize(t *testing.T) {
	for _, c := range []Config{
		{SampleSize: 1 << 22, SamplesPerHyper: 1 << 18},
		{SampleSize: 1 << 31, SamplesPerHyper: 1 << 31},
		{SampleSize: math.MaxInt, SamplesPerHyper: 3},
		{SampleSize: 1, SamplesPerHyper: 1<<16 + 1},
		{SampleSize: 65, SamplesPerHyper: 1 << 16},
		{SampleSize: 4194304/3 + 1, SamplesPerHyper: 3},
		{SampleSize: 1 << 22}, // m defaults to 10
		{MaxHyperSamples: 1<<16 + 1},
		{MaxHyperSamples: 1e12},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("m = %d, n = %d, k ≤ %d accepted", c.SamplesPerHyper, c.SampleSize, c.MaxHyperSamples)
		}
	}
	for _, c := range []Config{
		{SampleSize: 64, SamplesPerHyper: 1 << 16},
		{SampleSize: 4194304 / 3, SamplesPerHyper: 3},
		{SampleSize: 1 << 22 / 10}, // m defaults to 10
		{MaxHyperSamples: 1 << 16},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("m = %d, n = %d, k ≤ %d rejected: %v", c.SamplesPerHyper, c.SampleSize, c.MaxHyperSamples, err)
		}
	}
}

func TestNewRejects(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil source accepted")
	}
	pop := betaLikePopulation(100, 1)
	nan := math.NaN()
	for _, c := range []Config{{Epsilon: 2}, {Epsilon: nan}, {Confidence: nan}} {
		if _, err := New(pop, c); err == nil {
			t.Errorf("New accepted %+v", c)
		}
	}
}

func TestHyperSampleUnitsAccounting(t *testing.T) {
	pop := betaLikePopulation(10000, 2)
	est, err := New(pop, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	hs := est.HyperSample(rng)
	if hs.Units != 300*(hs.Retries+1) {
		t.Errorf("units = %d with %d retries", hs.Units, hs.Retries)
	}
	if hs.Estimate <= 0 {
		t.Errorf("estimate = %v", hs.Estimate)
	}
	if hs.ObservedMax > pop.TrueMax() {
		t.Error("observed max above population max")
	}
}

func TestRunConvergesOnFinitePopulation(t *testing.T) {
	pop := betaLikePopulation(50000, 4)
	actual := pop.TrueMax()
	est, err := New(pop, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	res := est.Run(rng)
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.HyperSamples < 2 {
		t.Errorf("k = %d, want ≥ 2", res.HyperSamples)
	}
	if res.Units < 600 {
		t.Errorf("units = %d, want ≥ 600", res.Units)
	}
	relErr := math.Abs(RelativeError(res.Estimate, actual))
	if relErr > 0.15 {
		t.Errorf("relative error %v too large (estimate %v, actual %v)", relErr, res.Estimate, actual)
	}
	if res.RelErr > 0.05 {
		t.Errorf("converged with RelErr %v > ε", res.RelErr)
	}
	if res.CILow > res.Estimate || res.CIHigh < res.Estimate {
		t.Error("estimate outside its own CI")
	}
	if len(res.Trace) != res.HyperSamples {
		t.Errorf("trace length %d vs k %d", len(res.Trace), res.HyperSamples)
	}
	// Theorem 6 diagnostics: s² present.
	if res.SigmaSq <= 0 {
		t.Errorf("SigmaSq = %v", res.SigmaSq)
	}
}

func TestRunAccuracyOverManyRuns(t *testing.T) {
	// The paper's experimental protocol: run the estimator 100 times and
	// look at the error distribution. With ε=5% at l=90%, the bulk of runs
	// must land within ~5% of the true maximum (the paper's Table 1 shows
	// max errors of 5–8%).
	if testing.Short() {
		t.Skip("long statistical test")
	}
	pop := betaLikePopulation(50000, 6)
	actual := pop.TrueMax()
	est, err := New(pop, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	const runs = 60
	over8 := 0
	var worst float64
	var unitSum int
	for r := 0; r < runs; r++ {
		res := est.Run(rng)
		e := math.Abs(RelativeError(res.Estimate, actual))
		if e > worst {
			worst = e
		}
		if e > 0.08 {
			over8++
		}
		unitSum += res.Units
	}
	if over8 > runs/5 {
		t.Errorf("%d/%d runs have error > 8%% (worst %v)", over8, runs, worst)
	}
	avgUnits := float64(unitSum) / runs
	// Paper's headline: ≈2500 units on average; anything in the same
	// order (600–8000) is the right regime for a 50k population.
	if avgUnits < 600 || avgUnits > 8000 {
		t.Errorf("average units = %v, outside the paper's regime", avgUnits)
	}
}

func TestFiniteCorrectionReducesOvershoot(t *testing.T) {
	// §3.4: the raw μ̂ over-estimates a finite population's maximum; the
	// corrected estimator must sit below the raw one and closer to truth.
	pop := betaLikePopulation(20000, 8)
	actual := pop.TrueMax()

	corrected, err := New(pop, Config{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := New(pop, Config{DisableFiniteCorrection: true})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 30
	var corrSum, rawSum float64
	rngC := stats.NewRNG(9)
	rngR := stats.NewRNG(9) // identical unit draws for a paired comparison
	for r := 0; r < runs; r++ {
		corrSum += corrected.Run(rngC).Estimate
		rawSum += raw.Run(rngR).Estimate
	}
	corrMean := corrSum / runs
	rawMean := rawSum / runs
	if corrMean >= rawMean {
		t.Errorf("corrected mean %v not below raw mean %v", corrMean, rawMean)
	}
	if math.Abs(corrMean-actual) > math.Abs(rawMean-actual)+0.01*actual {
		t.Errorf("correction moved estimate away from truth: corr %v raw %v actual %v",
			corrMean, rawMean, actual)
	}
}

func TestInfiniteSourceUsesRawMu(t *testing.T) {
	truth := weibull.Dist{Alpha: 4, Beta: 1, Mu: 10}
	src := InfiniteSource(func(rng *stats.RNG) float64 { return truth.Rand(rng) })
	if src.Size() != 0 {
		t.Fatal("InfiniteSource must report size 0")
	}
	est, err := New(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(11)
	res := est.Run(rng)
	if !res.Converged {
		t.Fatalf("no convergence on analytic source")
	}
	if math.Abs(RelativeError(res.Estimate, truth.Mu)) > 0.10 {
		t.Errorf("estimate %v vs true endpoint %v", res.Estimate, truth.Mu)
	}
}

func TestRunDeterministicInSeed(t *testing.T) {
	pop := betaLikePopulation(5000, 12)
	est, _ := New(pop, Config{})
	r1 := est.Run(stats.NewRNG(42))
	r2 := est.Run(stats.NewRNG(42))
	if r1.Estimate != r2.Estimate || r1.Units != r2.Units || r1.HyperSamples != r2.HyperSamples {
		t.Error("runs with equal seeds differ")
	}
	r3 := est.Run(stats.NewRNG(43))
	if r1.Estimate == r3.Estimate && r1.Units == r3.Units {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestMaxHyperSamplesCap(t *testing.T) {
	// An adversarial bimodal population keeps the CI wide; the run must
	// stop at the cap and report non-convergence.
	rng := stats.NewRNG(13)
	powers := make([]float64, 10000)
	for i := range powers {
		if rng.Bool(0.5) {
			powers[i] = rng.Float64()
		} else {
			powers[i] = 100 + rng.Float64()
		}
	}
	pop := vectorgen.FromPowers("bimodal", powers)
	est, err := New(pop, Config{MaxHyperSamples: 3, Epsilon: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	res := est.Run(stats.NewRNG(14))
	if res.Converged && res.HyperSamples < 3 {
		t.Skip("converged unexpectedly fast; nothing to assert")
	}
	if res.HyperSamples > 3 {
		t.Errorf("cap ignored: k = %d", res.HyperSamples)
	}
}

func TestSingleHyperSampleCap(t *testing.T) {
	// MaxHyperSamples = 1 cannot form a deviation: the run must report the
	// lone hyper-sample estimate with an unbounded interval instead of
	// zeros.
	pop := betaLikePopulation(10000, 19)
	est, err := New(pop, Config{MaxHyperSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := est.Run(stats.NewRNG(20))
	if res.Converged {
		t.Error("k=1 cannot converge")
	}
	if res.Estimate <= 0 || res.HyperSamples != 1 {
		t.Errorf("single-sample result: %+v", res)
	}
	if !math.IsInf(res.RelErr, 1) || !math.IsInf(res.CIHigh, 1) {
		t.Error("interval should be unbounded at k=1")
	}
}

func TestRunContextCancellation(t *testing.T) {
	pop := betaLikePopulation(20000, 21)
	// Tiny epsilon keeps the loop running long enough to observe the
	// cancellation at a hyper-sample boundary.
	est, err := New(pop, Config{Epsilon: 1e-9, MaxHyperSamples: 500})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first hyper-sample
	res := est.RunContext(ctx, stats.NewRNG(22))
	if res.HyperSamples != 0 || res.Units != 0 {
		t.Errorf("cancelled run still worked: %+v", res)
	}
	if res.Converged {
		t.Error("cancelled run claims convergence")
	}
	// A live context behaves exactly like Run.
	res2 := est.RunContext(context.Background(), stats.NewRNG(22))
	res3 := est.Run(stats.NewRNG(22))
	if res2.Estimate != res3.Estimate || res2.Units != res3.Units {
		t.Error("RunContext(Background) differs from Run")
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(105, 100); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("RelativeError = %v", got)
	}
	if got := RelativeError(95, 100); math.Abs(got+0.05) > 1e-12 {
		t.Errorf("RelativeError = %v", got)
	}
	if !math.IsInf(RelativeError(1, 0), 1) {
		t.Error("zero actual must give +Inf")
	}
}

func TestEstimatorNeverBelowObservedMax(t *testing.T) {
	// Sanity: the final estimate should not sit far below the largest
	// power actually observed during sampling (it may sit slightly below
	// when later hyper-samples see an outlier unit).
	pop := betaLikePopulation(30000, 15)
	est, _ := New(pop, Config{})
	rng := stats.NewRNG(16)
	for r := 0; r < 10; r++ {
		res := est.Run(rng)
		if res.Estimate < res.ObservedMax*0.93 {
			t.Errorf("estimate %v far below observed max %v", res.Estimate, res.ObservedMax)
		}
	}
}
