package power

import (
	"repro/internal/bdd"
	"repro/internal/delay"
	"repro/internal/netlist"
)

// ExactZeroDelayMaxMW computes the exact maximum zero-delay cycle power
// (mW) of a small circuit over ALL input vector pairs, using the
// BDD-based maximum-toggle engine (the Boolean-manipulation approach of
// Devadas et al. [1]). It serves as a ground-truth oracle for validating
// the statistical estimator; circuits with more than bdd.MaxExactInputs
// inputs are rejected, and so are params Validate rejects.
//
// Under zero delay every gate toggles at most once per cycle, so the
// glitch-swing weighting is irrelevant. The engine maximizes the sum of
// the evaluator's integer weights, each gate's load in quanta, which
// float64 adds exactly in any order, and the result converts to mW
// through the evaluator's own formula: it has the bits of the same
// cycle's power on every evaluator path.
func ExactZeroDelayMaxMW(c *netlist.Circuit, p Params) (float64, bdd.ExactResult, error) {
	if err := p.Validate(); err != nil {
		return 0, bdd.ExactResult{}, err
	}
	e := NewEvaluator(c, delay.Zero{}, p)
	weights := make([]float64, len(e.weights))
	for g, q := range e.weights {
		weights[g] = float64(q)
	}
	res, err := bdd.ExactMaxToggle(c, weights)
	if err != nil {
		return 0, bdd.ExactResult{}, err
	}
	return e.mw(int64(res.MaxWeight), 0), res, nil
}
