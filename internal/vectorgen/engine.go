package vectorgen

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/power"
	"repro/internal/sim"
)

// evalEngine is the shared simulation backend of Build and
// StreamSource.SampleBatch: it evaluates a packed batch of vector pairs
// into a slice of cycle powers across a bounded worker pool, one
// compiled stripe of up to 512 pairs per evaluator call. Each worker slot
// owns a cloned evaluator, so the executor (and its per-clone scratch
// state) is built once and reused across calls.
//
// Determinism: powers[i] depends only on pair i, and every write lands
// at its own index, so the output is bit-identical for any worker count
// and any goroutine schedule.
type evalEngine struct {
	proto   *power.Evaluator   // cloned into each new worker slot
	workers int                // slots in use
	evals   []*power.Evaluator // one clone per worker slot, len ≥ workers
}

// newEvalEngine clones eval into workers independent evaluators
// (0 = NumCPU).
func newEvalEngine(eval *power.Evaluator, workers int) *evalEngine {
	e := &evalEngine{proto: eval}
	e.setWorkers(workers)
	return e
}

// setWorkers sets the worker budget (0 = NumCPU), cloning slots the pool
// does not have yet. Slots beyond the budget stay built and idle: a
// budget that shrinks and grows again reuses them, and their counters
// stay in specStats, so cumulative counters never go backwards.
func (e *evalEngine) setWorkers(workers int) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	for len(e.evals) < workers {
		e.evals = append(e.evals, e.proto.Clone())
	}
	e.workers = workers
}

// specStats sums the speculation counters across the pool's evaluator
// clones. Callers read it between batches (the pool is quiescent after
// evaluatePacked returns), so no synchronization is needed beyond the
// happens-before of the worker WaitGroup.
func (e *evalEngine) specStats() sim.SpecStats {
	var agg sim.SpecStats
	for _, ev := range e.evals {
		agg.Add(ev.SpecStats())
	}
	return agg
}

// evaluatePacked fills powers[i] with the cycle power (mW) of pp's pair
// i — the pipeline's native path: the planes feed the compiled executors
// directly, so no [][]bool and no per-call transpose exist anywhere under
// it. A batch whose length disagrees with powers is refused with an
// error, never truncated. Work is chunked across the worker pool at
// stripe granularity (each worker owns whole stripes, so every write
// still lands at its own index and results stay bit-identical for any
// worker count). The single-worker path runs inline and performs zero
// heap allocations in steady state; multi-worker calls pay only the
// goroutine fan-out.
func (e *evalEngine) evaluatePacked(pp *sim.PackedPairs, powers []float64) error {
	if pp.N != len(powers) {
		return fmt.Errorf("vectorgen: %d packed pairs but %d power slots", pp.N, len(powers))
	}
	if pp.N == 0 {
		return nil
	}
	// The work unit is one stripe of StripeWords 64-lane blocks.
	span := e.evals[0].StripeWords()
	units := (pp.Blocks() + span - 1) / span
	workers := e.workers
	if workers > units {
		workers = units
	}
	if workers == 1 {
		return evalUnits(e.evals[0], pp, 0, units, powers)
	}
	chunk := (units + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > units {
			hi = units
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = evalUnits(e.evals[w], pp, lo, hi, powers)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// evalUnits evaluates stripes [lo, hi) of pp into their power slots
// through one worker's evaluator.
func evalUnits(ev *power.Evaluator, pp *sim.PackedPairs, lo, hi int, powers []float64) error {
	sl := ev.StripeWords() * 64
	for s := lo; s < hi; s++ {
		b0 := s * sl
		end := b0 + sl
		if end > pp.N {
			end = pp.N
		}
		if err := ev.PackedStripeMW(pp, s, powers[b0:end]); err != nil {
			return fmt.Errorf("vectorgen: compiled stripe evaluation: %w", err)
		}
	}
	return nil
}
