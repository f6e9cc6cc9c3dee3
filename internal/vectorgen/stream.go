package vectorgen

import (
	"fmt"
	"sync/atomic"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// StreamSource simulates vector pairs on demand instead of drawing from a
// precomputed finite population. This is the estimation flow a user
// actually runs against a real design: no ground truth exists, each
// sampled unit costs one simulation, and the estimator's unit count is
// the true cost. It implements evt.Source with Size() = 0 (the pair space
// is treated as infinite because repetition is allowed), or with an
// explicit DeclaredSize when the §3.4 finite-population correction should
// target a nominal |V|.
//
// It also implements evt.BatchSource: SampleBatch generates the batch's
// pairs from the RNG with exactly the draws, and the RNG end state, of
// the same number of SamplePower calls, and then simulates them across
// Workers parallel evaluators, one compiled stripe of up to 512 pairs
// per evaluator call. Results are bit-identical to the scalar path for
// any worker count.
//
// StreamSource is safe for sequential use only (like the estimator
// itself); the underlying evaluator is cloned per instance.
type StreamSource struct {
	eval *power.Evaluator
	gen  Generator
	// DeclaredSize, when positive, is reported by Size() so the estimator
	// applies the finite-population quantile correction for a nominal
	// population of that many pairs.
	DeclaredSize int
	// Workers bounds the parallel simulation inside SampleBatch
	// (0 = NumCPU). It never affects results, only wall time.
	Workers int

	eng       *evalEngine     // lazily built; grows when Workers does, never shrinks
	packed    sim.PackedPairs // reused per batch: the bit-plane batch buffer and its row scratch
	simulated atomic.Int64
}

// NewStreamSource builds an on-demand source from an evaluator and a
// generator. The evaluator is cloned, so the caller's instance stays
// usable.
func NewStreamSource(eval *power.Evaluator, gen Generator) (*StreamSource, error) {
	if err := checkWidth(eval, gen); err != nil {
		return nil, err
	}
	return &StreamSource{eval: eval.Clone(), gen: gen}, nil
}

// checkWidth refuses a generator whose vectors are not as wide as the
// evaluator's circuit has inputs.
func checkWidth(eval *power.Evaluator, gen Generator) error {
	if gen.Inputs() != eval.Circuit().NumInputs() {
		return fmt.Errorf("vectorgen: generator width %d != circuit %s inputs %d",
			gen.Inputs(), eval.Circuit().Name, eval.Circuit().NumInputs())
	}
	return nil
}

// SamplePower implements evt.Source: generate one pair, simulate it,
// return its cycle power in milliwatts.
func (s *StreamSource) SamplePower(rng *stats.RNG) float64 {
	p := s.gen.Generate(rng)
	s.simulated.Add(1)
	return s.eval.CyclePowerMW(p.V1, p.V2)
}

// SampleBatch implements evt.BatchSource: generate len(dst) pairs
// in stream order into the reused bit-plane buffer, then simulate them in
// parallel into dst. The packed batch is the pipeline's native currency,
// so the steady-state call (built-in generator, warm buffers, Workers=1)
// performs zero heap allocations — testing.AllocsPerRun guards it. The
// batch engine's only errors are shape checks, and SampleBatch shapes
// the batch itself to the width NewStreamSource and Rebind checked, so
// an error is a bug and panics.
func (s *StreamSource) SampleBatch(rng *stats.RNG, dst []float64) {
	s.packed.Reset(s.gen.Inputs(), len(dst))
	GeneratePacked(s.gen, rng, &s.packed)
	s.simulated.Add(int64(len(dst)))
	if err := s.engine().evaluatePacked(&s.packed, dst); err != nil {
		panic(err)
	}
}

// engine returns the cached evaluation engine, resized to the current
// Workers budget (slots are added, never torn down).
func (s *StreamSource) engine() *evalEngine {
	if s.eng == nil {
		s.eng = newEvalEngine(s.eval, s.Workers)
	} else {
		s.eng.setWorkers(s.Workers)
	}
	return s.eng
}

// Rebind prepares the source for another run with a new generator: the
// built evaluator clones, their executors and the batch buffer are kept.
// The generator must match the circuit's input width. DeclaredSize and
// Workers are plain fields the caller sets alongside. Results after
// Rebind are bit-identical to a fresh source's: the engines carry no
// state from one batch to the next that a result depends on.
func (s *StreamSource) Rebind(gen Generator) error {
	if err := checkWidth(s.eval, gen); err != nil {
		return err
	}
	s.gen = gen
	return nil
}

// Size implements evt.Source.
func (s *StreamSource) Size() int { return s.DeclaredSize }

// SpecCounters implements evt.EngineStatsSource: cumulative speculation
// counters summed across the batch engine's evaluator clones (zero
// before the first timed batch). The estimator snapshots deltas around
// each run, so sharing one source across runs attributes counts
// correctly. s.eval only seeds the clones and runs the scalar
// SamplePower, so it has no counters of its own.
func (s *StreamSource) SpecCounters() (stripes, patched, fallbacks uint64) {
	var agg sim.SpecStats
	if s.eng != nil {
		agg = s.eng.specStats()
	}
	return agg.Stripes, agg.PatchedWords, agg.Fallbacks
}

// Simulated returns the number of pairs simulated so far — the method's
// real cost counter.
func (s *StreamSource) Simulated() int64 { return s.simulated.Load() }
