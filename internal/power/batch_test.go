package power

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/sim"
)

// allModels lists the four delay models every batch differential covers.
var allModels = []delay.Model{delay.Zero{}, delay.Unit{}, delay.FanoutLoaded{}, delay.StandardTable()}

// TestBatchMWPackedMatchesSerial is the power-level differential for the
// packed entry point: bit-plane batches must produce bit-identical powers
// to per-pair CyclePowerMW on all four delay models, for a single pair, a
// partial block, a full block and two blocks with a ragged tail. Short
// out slices, and batches one input wider than the circuit, must be
// refused with an error, never a panic, through both packed entry points
// and before and after the evaluator has run a batch.
func TestBatchMWPackedMatchesSerial(t *testing.T) {
	c := bench.MustGenerate("C880")
	nIn := c.NumInputs()
	var wide sim.PackedPairs
	wide.Reset(nIn+1, 64)
	rejectWide := func(e *Evaluator, m delay.Model, when string) {
		t.Helper()
		if err := e.BatchMWPacked(&wide, make([]float64, 64)); err == nil {
			t.Fatalf("%s %s: BatchMWPacked accepted a %d-input batch for %d inputs", m.Name(), when, nIn+1, nIn)
		}
		if err := e.PackedStripeMW(&wide, 0, make([]float64, 64)); err == nil {
			t.Fatalf("%s %s: PackedStripeMW accepted a %d-input batch for %d inputs", m.Name(), when, nIn+1, nIn)
		}
	}
	for _, m := range allModels {
		for _, n := range []int{1, 17, 64, 150} {
			e := NewEvaluator(c, m, Params{})
			rejectWide(e, m, "fresh")
			var pp sim.PackedPairs
			pp.Reset(nIn, n)
			v1s := make([][]bool, n)
			v2s := make([][]bool, n)
			for i := 0; i < n; i++ {
				v1s[i] = kernelPattern(nIn, uint64(7*i+1))
				v2s[i] = kernelPattern(nIn, uint64(7*i+4))
				pp.SetPair(i, v1s[i], v2s[i])
			}
			out := make([]float64, n)
			if err := e.BatchMWPacked(&pp, out); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if want := e.CyclePowerMW(v1s[i], v2s[i]); out[i] != want {
					t.Fatalf("%s n=%d pair %d: packed %v serial %v", m.Name(), n, i, out[i], want)
				}
			}
			if err := e.BatchMWPacked(&pp, out[:n-1]); err == nil {
				t.Fatalf("%s n=%d: short out slice accepted", m.Name(), n)
			}
			rejectWide(e, m, "warm")
		}
	}
}

// TestBatchMWPackedZeroAlloc guards the packed entry point: with a warm
// executor, evaluating a packed zero-delay block allocates nothing.
func TestBatchMWPackedZeroAlloc(t *testing.T) {
	c := bench.MustGenerate("C432")
	e := NewEvaluator(c, delay.Zero{}, Params{})
	var pp sim.PackedPairs
	pp.Reset(c.NumInputs(), 64)
	for i := 0; i < 64; i++ {
		v := make([]bool, c.NumInputs())
		for j := range v {
			v[j] = (i+j)%2 == 0
		}
		pp.SetPair(i, v, v)
	}
	out := make([]float64, 64)
	if err := e.BatchMWPacked(&pp, out); err != nil {
		t.Fatal(err) // warm: compile and build the executor
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.BatchMWPacked(&pp, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("BatchMWPacked allocated %v objects per block, want 0", allocs)
	}
}
