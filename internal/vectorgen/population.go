package vectorgen

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options configures Build.
type Options struct {
	// Size is the number of vector pairs in the finite population.
	Size int
	// Seed makes the population reproducible.
	Seed uint64
	// Workers is the parallelism for power evaluation; 0 means NumCPU.
	Workers int
	// KeepPairs retains the raw vectors after power evaluation. The
	// estimator only needs power values, so large experiment populations
	// leave this false to save memory.
	KeepPairs bool
}

// Population is a finite set V of vector pairs with their simulated cycle
// powers. It is the sampling universe of the estimation procedures: the
// paper's |V| is Size(), its ω(F) is TrueMax(), and the "qualified units"
// census of Tables 1–4 is QualifiedFraction.
type Population struct {
	name   string
	powers []float64 // cycle power per unit, milliwatts
	// packed retains the raw vectors in bit-plane form (2 bits per input
	// bit instead of the 2 bytes of a []bool pair — ≈8× smaller, which is
	// what lets the service LRU hold KeepPairs populations); nil unless
	// Options.KeepPairs. Pair unpacks on demand.
	packed  *sim.PackedPairs
	maxIdx  int
	sumMW   float64
	unitsIn int // input width, for reporting
}

// Build generates a population with gen and evaluates every unit's cycle
// power with eval (in parallel). The result is deterministic in
// Options.Seed regardless of worker count because generation is
// sequential and only simulation is parallel, one compiled stripe of up
// to 512 pairs per worker call. Simulation errors from the batch engine
// are propagated, not masked.
func Build(eval *power.Evaluator, gen Generator, opt Options) (*Population, error) {
	if opt.Size <= 0 {
		return nil, fmt.Errorf("vectorgen: population size must be positive, got %d", opt.Size)
	}
	if gen.Inputs() != eval.Circuit().NumInputs() {
		return nil, fmt.Errorf("vectorgen: generator width %d != circuit %s inputs %d",
			gen.Inputs(), eval.Circuit().Name, eval.Circuit().NumInputs())
	}

	// Generate straight into bit planes: the packed batch is the native
	// currency of the evaluation engines, so the [][]bool intermediary
	// (one heap slice per vector) no longer exists on this path. The RNG
	// is consumed pair by pair in Generate's exact draw order, so the
	// population is bit-identical to the historical []bool construction.
	rng := stats.NewRNG(opt.Seed)
	pp := &sim.PackedPairs{}
	pp.Reset(gen.Inputs(), opt.Size)
	GeneratePacked(gen, rng, pp)

	powers := make([]float64, opt.Size)
	if err := newEvalEngine(eval, opt.Workers).evaluatePacked(pp, powers); err != nil {
		return nil, err
	}

	p := &Population{
		name:    fmt.Sprintf("%s/%s/%d", eval.Circuit().Name, gen.Name(), opt.Size),
		powers:  powers,
		unitsIn: gen.Inputs(),
	}
	for i, v := range powers {
		p.sumMW += v
		if v > powers[p.maxIdx] {
			p.maxIdx = i
		}
	}
	if opt.KeepPairs {
		p.packed = pp
	}
	return p, nil
}

// FromPowers wraps precomputed power values as a population (used by tests
// and by callers with analytic distributions).
func FromPowers(name string, powers []float64) *Population {
	if len(powers) == 0 {
		panic("vectorgen: empty population")
	}
	p := &Population{name: name, powers: append([]float64(nil), powers...)}
	for i, v := range p.powers {
		p.sumMW += v
		if v > p.powers[p.maxIdx] {
			p.maxIdx = i
		}
	}
	return p
}

// Name identifies the population in reports.
func (p *Population) Name() string { return p.name }

// Size returns |V|.
func (p *Population) Size() int { return len(p.powers) }

// Power returns the cycle power (mW) of unit i.
func (p *Population) Power(i int) float64 { return p.powers[i] }

// Powers returns the full power vector (callers must not modify it).
func (p *Population) Powers() []float64 { return p.powers }

// Pair returns the vectors of unit i, unpacked from the bit-plane store
// into fresh slices; it panics if the population was built without
// KeepPairs.
func (p *Population) Pair(i int) Pair {
	if p.packed == nil {
		panic("vectorgen: population built without KeepPairs")
	}
	v1, v2 := p.packed.Pair(i)
	return Pair{V1: v1, V2: v2}
}

// HasPairs reports whether raw vectors were retained.
func (p *Population) HasPairs() bool { return p.packed != nil }

// PairBytes reports the memory held by the retained vectors (0 without
// KeepPairs) — bit-plane packed, ≈8× below the equivalent []bool pairs.
func (p *Population) PairBytes() int {
	if p.packed == nil {
		return 0
	}
	return p.packed.MemoryBytes()
}

// TrueMax returns ω(F), the actual maximum power of the population (mW).
func (p *Population) TrueMax() float64 { return p.powers[p.maxIdx] }

// TrueMaxIndex returns the index of the maximum-power unit.
func (p *Population) TrueMaxIndex() int { return p.maxIdx }

// MeanPower returns the average power of the population (mW).
func (p *Population) MeanPower() float64 { return p.sumMW / float64(len(p.powers)) }

// QualifiedFraction returns Y = Z/|V| where Z counts units whose power is
// within eps (relative) of the true maximum — the paper's "qualified
// units" (Tables 1, 3, 4 use eps = 0.05).
func (p *Population) QualifiedFraction(eps float64) float64 {
	threshold := p.TrueMax() * (1 - eps)
	z := 0
	for _, v := range p.powers {
		if v >= threshold {
			z++
		}
	}
	return float64(z) / float64(len(p.powers))
}

// SampleIndex draws one unit index uniformly (sampling with replacement —
// the population is conceptually infinite because repeats are allowed).
func (p *Population) SampleIndex(rng *stats.RNG) int { return rng.Intn(len(p.powers)) }

// SamplePower draws one unit's power uniformly with replacement.
func (p *Population) SamplePower(rng *stats.RNG) float64 {
	return p.powers[rng.Intn(len(p.powers))]
}

// SampleBatch implements evt.BatchSource: it fills dst with len(dst)
// uniform with-replacement draws, consuming the RNG exactly as the same
// number of SamplePower calls would, so batched and scalar sampling are
// interchangeable bit for bit.
func (p *Population) SampleBatch(rng *stats.RNG, dst []float64) {
	for i := range dst {
		dst[i] = p.powers[rng.Intn(len(p.powers))]
	}
}

// ECDF returns the empirical CDF of the population's power values.
func (p *Population) ECDF() *stats.ECDF { return stats.NewECDF(p.powers) }
