package power

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/sim"
)

// kernelPattern builds one deterministic pseudo-random input vector.
func kernelPattern(nIn int, seed uint64) []bool {
	v := make([]bool, nIn)
	x := seed
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = x&1 != 0
	}
	return v
}

// TestKernelBatchMatchesSerial is the power-level differential for an
// evaluator whose program comes from a shared cache: BatchMWPacked must
// produce bit-identical powers to per-pair CyclePowerMW on all four
// delay models, at the estimator's 300-pair batch shape.
func TestKernelBatchMatchesSerial(t *testing.T) {
	c := bench.MustGenerate("C880")
	nIn := c.NumInputs()
	const n = 300 // 5 blocks: one partial stripe, the estimator's shape
	kc := sim.NewProgramCache(len(allModels))
	for _, m := range allModels {
		e := NewEvaluator(c, m, Params{})
		e.UseSpeculative(kc, "C880/"+m.Name())
		var pp sim.PackedPairs
		pp.Reset(nIn, n)
		v1s := make([][]bool, n)
		v2s := make([][]bool, n)
		for i := 0; i < n; i++ {
			v1s[i] = kernelPattern(nIn, uint64(9*i+1))
			v2s[i] = kernelPattern(nIn, uint64(9*i+5))
			pp.SetPair(i, v1s[i], v2s[i])
		}
		out := make([]float64, n)
		if err := e.BatchMWPacked(&pp, out); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if want := e.CyclePowerMW(v1s[i], v2s[i]); out[i] != want {
				t.Fatalf("%s pair %d: kernel %v serial %v", m.Name(), i, out[i], want)
			}
		}
	}
}

// TestKernelCacheSharing: evaluators given one cache under one key share
// a single compiled program, clones inherit it without recompiling (also
// when cloned before any batch, when Clone resolves it once for all of
// them), and distinct delay models under distinct keys compile distinct
// programs.
func TestKernelCacheSharing(t *testing.T) {
	c := bench.MustGenerate("C432")
	kc := sim.NewProgramCache(4)
	a := NewEvaluator(c, delay.FanoutLoaded{}, Params{})
	a.UseSpeculative(kc, "C432/fanout")
	b := NewEvaluator(c, delay.FanoutLoaded{}, Params{})
	b.UseSpeculative(kc, "C432/fanout")
	if a.StripeWords() != 8 || b.StripeWords() != a.StripeWords() {
		t.Fatalf("stripe widths %d/%d", a.StripeWords(), b.StripeWords())
	}
	st := kc.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("two evaluators, one key: hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	cl := a.Clone()
	cl.StripeWords() // must not touch the cache: the program is inherited
	if st := kc.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("clone went to the cache (hits=%d misses=%d)", st.Hits, st.Misses)
	}
	u := NewEvaluator(c, delay.Unit{}, Params{})
	u.UseSpeculative(kc, "C432/unit")
	clones := []*Evaluator{u.Clone(), u.Clone()}
	for _, cl := range clones {
		cl.StripeWords()
	}
	if st := kc.Stats(); st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("second delay model, two clones before any batch: hits=%d misses=%d, want 1/2", st.Hits, st.Misses)
	}
}

// TestKernelStripeZeroAlloc guards the steady state: a warm evaluation
// of a multi-word stripe allocates nothing, under zero delay (the settle
// kernel) and under a timed model (settle-then-patch).
func TestKernelStripeZeroAlloc(t *testing.T) {
	c := bench.MustGenerate("C432")
	for _, m := range []delay.Model{delay.Zero{}, delay.FanoutLoaded{}} {
		e := NewEvaluator(c, m, Params{})
		const n = 300
		var pp sim.PackedPairs
		pp.Reset(c.NumInputs(), n)
		for i := 0; i < n; i++ {
			pp.SetPair(i, kernelPattern(c.NumInputs(), uint64(i+1)), kernelPattern(c.NumInputs(), uint64(i+500)))
		}
		out := make([]float64, n)
		if err := e.BatchMWPacked(&pp, out); err != nil {
			t.Fatal(err) // warm: compile + grow toggle planes
		}
		if err := e.BatchMWPacked(&pp, out); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := e.BatchMWPacked(&pp, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: BatchMWPacked allocated %v/op, want 0", m.Name(), allocs)
		}
	}
}

// TestKernelStripeShapeValidation: PackedStripeMW rejects wrong-shaped
// out slices and stripes outside the batch.
func TestKernelStripeShapeValidation(t *testing.T) {
	c := bench.MustGenerate("C432")
	e := NewEvaluator(c, delay.FanoutLoaded{}, Params{})
	var pp sim.PackedPairs
	pp.Reset(c.NumInputs(), 100)
	if err := e.PackedStripeMW(&pp, 0, make([]float64, 64)); err == nil {
		t.Fatal("short out slice accepted")
	}
	if err := e.PackedStripeMW(&pp, 1, make([]float64, 100)); err == nil {
		t.Fatal("out-of-range stripe accepted")
	}
	if err := e.PackedStripeMW(&pp, -1, make([]float64, 100)); err == nil {
		t.Fatal("negative stripe accepted")
	}
	if err := e.PackedStripeMW(&pp, 0, make([]float64, 100)); err != nil {
		t.Fatal(err)
	}
}
