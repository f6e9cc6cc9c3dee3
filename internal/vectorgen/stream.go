package vectorgen

import (
	"sync/atomic"

	"repro/internal/faultpoint"
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
// pairs sequentially from the RNG (so the random stream is consumed
// exactly as the same number of SamplePower calls would consume it) and
// then simulates them across Workers parallel evaluators, one compiled
// stripe of up to 512 pairs per evaluator call. Results are bit-identical
// to the scalar path for any worker count.
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

	eng            *evalEngine     // lazily built; grows when Workers does, never shrinks
	packed         sim.PackedPairs // reused per batch: the bit-plane batch buffer and its row scratch
	simulated      atomic.Int64
	batchFallbacks atomic.Int64
	batchErr       error
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

func checkWidth(eval *power.Evaluator, gen Generator) error {
	if gen.Inputs() != eval.Circuit().NumInputs() {
		return &widthError{gen: gen.Inputs(), circuit: eval.Circuit().NumInputs(), name: eval.Circuit().Name}
	}
	return nil
}

type widthError struct {
	gen, circuit int
	name         string
}

func (e *widthError) Error() string {
	return "vectorgen: generator width mismatch for circuit " + e.name
}

// SamplePower implements evt.Source: generate one pair, simulate it,
// return its cycle power in milliwatts.
func (s *StreamSource) SamplePower(rng *stats.RNG) float64 {
	p := s.gen.Generate(rng)
	s.simulated.Add(1)
	return s.eval.CyclePowerMW(p.V1, p.V2)
}

// SampleBatch implements evt.BatchSource: generate len(dst) pairs
// sequentially into the reused bit-plane buffer, then simulate them in
// parallel into dst. The packed batch is the pipeline's native currency,
// so the steady-state call (built-in generator, warm buffers, Workers=1)
// performs zero heap allocations — testing.AllocsPerRun guards it. A
// simulation error from the batch engine is recorded (see BatchErr) and
// the affected pairs re-evaluate on the scalar oracle, so dst is always
// fully valid.
func (s *StreamSource) SampleBatch(rng *stats.RNG, dst []float64) {
	s.packed.Reset(s.gen.Inputs(), len(dst))
	GeneratePacked(s.gen, rng, &s.packed)
	s.simulated.Add(int64(len(dst)))
	err := s.engine().evaluatePacked(&s.packed, dst)
	if ferr := faultpoint.Hit("vectorgen/sample-batch"); ferr != nil {
		err = ferr // injected batch-simulation failure (chaos tests)
	}
	if err != nil {
		// Packed evaluation is bit-identical to the scalar path, so
		// recovering serially preserves the determinism contract while the
		// recorded error keeps the failure visible. The pairs are unpacked
		// from the very planes the batch engine saw.
		if s.batchErr == nil {
			s.batchErr = err
		}
		s.batchFallbacks.Add(1)
		v1 := make([]bool, s.packed.Inputs)
		v2 := make([]bool, s.packed.Inputs)
		for i := range dst {
			s.packed.PairInto(i, v1, v2)
			dst[i] = s.eval.CyclePowerMW(v1, v2)
		}
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
// built evaluator clones, their executors and the batch buffer are kept,
// and the per-run error state (BatchErr, BatchFallbacks) is cleared. The
// generator must match the circuit's input width. DeclaredSize and
// Workers are plain fields the caller sets alongside. Results after
// Rebind are bit-identical to a fresh source's: the engines carry no
// state from one batch to the next that a result depends on.
func (s *StreamSource) Rebind(gen Generator) error {
	if err := checkWidth(s.eval, gen); err != nil {
		return err
	}
	s.gen = gen
	s.batchErr = nil
	s.batchFallbacks.Store(0)
	return nil
}

// Size implements evt.Source.
func (s *StreamSource) Size() int { return s.DeclaredSize }

// SpecCounters implements evt.EngineStatsSource: cumulative speculation
// counters summed across the batch engine's evaluator clones (zero when
// the evaluator runs a non-speculative strategy). The estimator
// snapshots deltas around each run, so sharing one source across runs
// attributes counts correctly.
func (s *StreamSource) SpecCounters() (stripes, patched, fallbacks uint64) {
	var agg sim.SpecStats
	if s.eng != nil {
		agg = s.eng.specStats()
	}
	// The scalar entry point (SamplePower) and the serial fallback use
	// s.eval directly; its counters are disjoint from the clones'.
	agg.Add(s.eval.SpecStats())
	return agg.Stripes, agg.PatchedWords, agg.Fallbacks
}

// Simulated returns the number of pairs simulated so far — the method's
// real cost counter.
func (s *StreamSource) Simulated() int64 { return s.simulated.Load() }

// BatchErr returns the first simulation error the batch engine reported,
// or nil. The affected batches were transparently re-evaluated serially,
// so results are unaffected; the error is surfaced for observability.
func (s *StreamSource) BatchErr() error { return s.batchErr }

// BatchFallbacks returns how many batches fell back to the scalar oracle
// after a batch-engine error. Paired with BatchErr: the error says what
// went wrong first, the counter says how often it kept happening.
func (s *StreamSource) BatchFallbacks() int64 { return s.batchFallbacks.Load() }
