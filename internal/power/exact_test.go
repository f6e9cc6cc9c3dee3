package power

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/sim"
)

// TestExactZeroDelayMaxMWAgainstExhaustive enumerates every vector pair
// of small random circuits under zero delay and requires the largest
// power to have the bits of ExactZeroDelayMaxMW, the BDD oracle, which
// shares no simulation code with the evaluator, only its integer weights
// and its conversion to mW. Every case enumerates through
// BatchMWPacked, so the compiled kernel and the energy fold are checked
// against the oracle; the 6-input case also enumerates through the
// scalar CyclePowerMW. MaxFan 4 runs the settle walk's path for gates
// with three or more inputs. The BDD's witness pair must reach the
// maximum through CyclePowerMW.
func TestExactZeroDelayMaxMWAgainstExhaustive(t *testing.T) {
	for _, opt := range []bench.RandomOptions{
		{Inputs: 6, Outputs: 3, Gates: 50, Seed: 11},
		{Inputs: 8, Outputs: 4, Gates: 80, MaxFan: 2, Seed: 21},
		{Inputs: 9, Outputs: 4, Gates: 90, MaxFan: 4, Seed: 22},
		{Inputs: 10, Outputs: 5, Gates: 100, MaxFan: 4, Seed: 23},
	} {
		t.Run(fmt.Sprintf("inputs%d/fan%d/seed%d", opt.Inputs, opt.MaxFan, opt.Seed), func(t *testing.T) {
			c, err := bench.RandomCircuit(opt)
			if err != nil {
				t.Fatal(err)
			}
			exact, res, err := ExactZeroDelayMaxMW(c, Params{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Visited <= 0 {
				t.Error("no search happened")
			}
			eval := NewEvaluator(c, delay.Zero{}, Params{})
			check := func(path string, best float64) {
				t.Helper()
				if math.Float64bits(exact) != math.Float64bits(best) {
					t.Fatalf("exact %v vs exhaustive %v through %s", exact, best, path)
				}
			}
			check("BatchMWPacked", packedExhaustiveMaxMW(t, eval))
			if n := c.NumInputs(); n <= 6 {
				var best float64
				for a := 0; a < 1<<n; a++ {
					for b := 0; b < 1<<n; b++ {
						v1 := make([]bool, n)
						v2 := make([]bool, n)
						for i := 0; i < n; i++ {
							v1[i] = a&(1<<i) != 0
							v2[i] = b&(1<<i) != 0
						}
						best = max(best, eval.CyclePowerMW(v1, v2))
					}
				}
				check("CyclePowerMW", best)
			}
			if p := eval.CyclePowerMW(res.V1, res.V2); math.Float64bits(p) != math.Float64bits(exact) {
				t.Errorf("witness power %v != exact %v", p, exact)
			}
		})
	}
}

// packedExhaustiveMaxMW runs all 4ⁿ vector pairs of an n-input circuit,
// n ≥ 6, through BatchMWPacked and returns the largest power. Pair
// a·2ⁿ + b has v1 = a and v2 = b, input i at bit i. Its planes are
// written straight from the pair index: a 64-lane block holds one a and
// 64 consecutive b, so input i's first-vector word is all zeros or all
// ones, and its second-vector word is lane l's bit i for i < 6 and the
// block's bit i above.
func packedExhaustiveMaxMW(t *testing.T, eval *Evaluator) float64 {
	t.Helper()
	n := eval.Circuit().NumInputs()
	if n < 6 {
		t.Fatalf("%d inputs: a 64-lane block would span several first vectors", n)
	}
	var lanes [6]uint64
	for i := range lanes {
		for l := 0; l < 64; l++ {
			lanes[i] |= uint64(l>>i&1) << l
		}
	}
	total := 1 << (2 * n)
	batch := min(total, 1<<14)
	var pp sim.PackedPairs
	out := make([]float64, batch)
	var best float64
	for start := 0; start < total; start += batch {
		pp.Reset(n, batch)
		for blk := 0; blk < batch/64; blk++ {
			pair := start + blk*64
			a, b := uint64(pair>>n), uint64(pair&(1<<n-1))
			for i := 0; i < n; i++ {
				pp.In1[blk*n+i] = -(a >> i & 1)
				if i < len(lanes) {
					pp.In2[blk*n+i] = lanes[i]
				} else {
					pp.In2[blk*n+i] = -(b >> i & 1)
				}
			}
		}
		if err := eval.BatchMWPacked(&pp, out); err != nil {
			t.Fatal(err)
		}
		for _, p := range out {
			best = max(best, p)
		}
	}
	return best
}

func TestExactZeroDelayUpperBoundsTimedPopulationIsViolatable(t *testing.T) {
	// The zero-delay exact maximum is NOT an upper bound for timed power
	// (glitches add energy); this test documents the relationship: the
	// timed maximum over random pairs may exceed the zero-delay exact
	// value, but the zero-delay maximum over random pairs never does.
	c, err := bench.RandomCircuit(bench.RandomOptions{Inputs: 8, Outputs: 4, Gates: 80, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := ExactZeroDelayMaxMW(c, Params{})
	if err != nil {
		t.Fatal(err)
	}
	zeroEval := NewEvaluator(c, delay.Zero{}, Params{})
	n := c.NumInputs()
	for a := 0; a < 1<<n; a += 3 {
		for b := 0; b < 1<<n; b += 5 {
			v1 := make([]bool, n)
			v2 := make([]bool, n)
			for i := 0; i < n; i++ {
				v1[i] = a&(1<<i) != 0
				v2[i] = b&(1<<i) != 0
			}
			if p := zeroEval.CyclePowerMW(v1, v2); p > exact+1e-9 {
				t.Fatalf("zero-delay sample %v exceeds exact max %v", p, exact)
			}
		}
	}
}

func TestExactZeroDelayRejectsBigCircuits(t *testing.T) {
	c := bench.MustGenerate("C432") // 36 inputs
	if _, _, err := ExactZeroDelayMaxMW(c, Params{}); err == nil {
		t.Fatal("36-input circuit accepted by exact engine")
	}
}
