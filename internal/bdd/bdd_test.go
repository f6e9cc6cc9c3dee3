package bdd

import (
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/netlist"
)

func TestBasicOps(t *testing.T) {
	m := New(2)
	a, b := m.Var(0), m.Var(1)
	cases := []struct {
		name string
		f    Ref
		tt   [4]bool // f(00, 01, 10, 11) with assignment (a, b)
	}{
		{"and", m.And(a, b), [4]bool{false, false, false, true}},
		{"or", m.Or(a, b), [4]bool{false, true, true, true}},
		{"xor", m.Xor(a, b), [4]bool{false, true, true, false}},
		{"nota", m.Not(a), [4]bool{true, true, false, false}},
	}
	for _, c := range cases {
		for v := 0; v < 4; v++ {
			in := []bool{v&2 != 0, v&1 != 0}
			if got := m.Eval(c.f, in); got != c.tt[v] {
				t.Errorf("%s(%v) = %v, want %v", c.name, in, got, c.tt[v])
			}
		}
	}
}

func TestCanonicity(t *testing.T) {
	// Structurally different constructions of the same function must hit
	// the same node (ROBDD canonicity).
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f1 := m.Or(m.And(a, b), m.And(a, c))
	f2 := m.And(a, m.Or(b, c))
	if f1 != f2 {
		t.Error("equivalent functions got distinct refs")
	}
	// De Morgan.
	g1 := m.Not(m.And(a, b))
	g2 := m.Or(m.Not(a), m.Not(b))
	if g1 != g2 {
		t.Error("De Morgan forms differ")
	}
	// Tautology and contradiction collapse to constants.
	if m.Or(a, m.Not(a)) != One {
		t.Error("a ∨ ¬a != One")
	}
	if m.And(a, m.Not(a)) != Zero {
		t.Error("a ∧ ¬a != Zero")
	}
}

func TestITERandomEquivalence(t *testing.T) {
	// Property: ITE(f,g,h) == (f∧g) ∨ (¬f∧h) for random small functions.
	m := New(4)
	vars := []Ref{m.Var(0), m.Var(1), m.Var(2), m.Var(3)}
	build := func(seed uint32) Ref {
		f := vars[seed%4]
		if seed&4 != 0 {
			f = m.Not(f)
		}
		g := vars[(seed>>3)%4]
		if seed&64 != 0 {
			f = m.And(f, g)
		} else {
			f = m.Or(f, g)
		}
		return f
	}
	if err := quick.Check(func(s1, s2, s3 uint32) bool {
		f, g, h := build(s1), build(s2), build(s3)
		lhs := m.ITE(f, g, h)
		rhs := m.Or(m.And(f, g), m.And(m.Not(f), h))
		return lhs == rhs
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRestrict(t *testing.T) {
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f := m.Or(m.And(a, b), c)
	if got := m.Restrict(f, 0, true); got != m.Or(b, c) {
		t.Error("restrict a=1 wrong")
	}
	if got := m.Restrict(f, 0, false); got != c {
		t.Error("restrict a=0 wrong")
	}
	if got := m.Restrict(f, 2, true); got != One {
		t.Error("restrict c=1 wrong")
	}
}

func TestVarPanics(t *testing.T) {
	m := New(2)
	for _, i := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Var(%d) did not panic", i)
				}
			}()
			m.Var(i)
		}()
	}
}

// evalGate computes steady-state gate values (test reference).
func evalGates(c *netlist.Circuit, in []bool) []bool {
	vals := make([]bool, len(c.Gates))
	for i, idx := range c.Inputs {
		vals[idx] = in[i]
	}
	var buf []bool
	for i, g := range c.Gates {
		if g.Kind == netlist.Input {
			continue
		}
		buf = buf[:0]
		for _, f := range g.Fanin {
			buf = append(buf, vals[f])
		}
		vals[i] = g.Kind.Eval(buf)
	}
	return vals
}

func TestCompileCircuitMatchesSimulation(t *testing.T) {
	c, err := bench.RandomCircuit(bench.RandomOptions{Inputs: 8, Outputs: 4, Gates: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := New(8)
	vars := make([]int, 8)
	for i := range vars {
		vars[i] = i
	}
	refs, err := CompileCircuit(m, c, vars)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 256; v++ {
		in := make([]bool, 8)
		for i := range in {
			in[i] = v&(1<<i) != 0
		}
		want := evalGates(c, in)
		for g := range refs {
			if got := m.Eval(refs[g], in); got != want[g] {
				t.Fatalf("pattern %08b gate %d (%s): bdd %v, sim %v",
					v, g, c.Gates[g].Name, got, want[g])
			}
		}
	}
}

func TestCompileCircuitErrors(t *testing.T) {
	c, _ := bench.RandomCircuit(bench.RandomOptions{Inputs: 4, Outputs: 2, Gates: 10, Seed: 1})
	m := New(4)
	if _, err := CompileCircuit(m, c, []int{0, 1}); err == nil {
		t.Error("wrong variable count accepted")
	}
}

func TestExactMaxToggleAgainstExhaustive(t *testing.T) {
	// Property: on random small circuits with random positive weights,
	// branch-and-bound equals exhaustive enumeration of all vector pairs.
	for seed := uint64(1); seed <= 6; seed++ {
		c, err := bench.RandomCircuit(bench.RandomOptions{Inputs: 5, Outputs: 2, Gates: 30, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		weights := make([]float64, c.NumGates())
		w := 0.37
		for i := range weights {
			weights[i] = w
			w = w*1.7 + 0.1
			if w > 5 {
				w -= 5
			}
		}
		res, err := ExactMaxToggle(c, weights)
		if err != nil {
			t.Fatal(err)
		}

		// Exhaustive reference.
		n := c.NumInputs()
		var best float64
		for a := 0; a < 1<<n; a++ {
			for b := 0; b < 1<<n; b++ {
				v1 := make([]bool, n)
				v2 := make([]bool, n)
				for i := 0; i < n; i++ {
					v1[i] = a&(1<<i) != 0
					v2[i] = b&(1<<i) != 0
				}
				s1 := evalGates(c, v1)
				s2 := evalGates(c, v2)
				var sum float64
				for g := range s1 {
					if s1[g] != s2[g] {
						sum += weights[g]
					}
				}
				if sum > best {
					best = sum
				}
			}
		}
		if diff := res.MaxWeight - best; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("seed %d: exact %v vs exhaustive %v", seed, res.MaxWeight, best)
		}
		// The returned witness must reproduce the maximum.
		s1 := evalGates(c, res.V1)
		s2 := evalGates(c, res.V2)
		var sum float64
		for g := range s1 {
			if s1[g] != s2[g] {
				sum += weights[g]
			}
		}
		if diff := sum - res.MaxWeight; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("seed %d: witness achieves %v, claimed %v", seed, sum, res.MaxWeight)
		}
	}
}

func TestExactMaxToggleErrors(t *testing.T) {
	big, _ := bench.RandomCircuit(bench.RandomOptions{Inputs: MaxExactInputs + 1, Outputs: 1, Gates: 10, Seed: 1})
	if _, err := ExactMaxToggle(big, make([]float64, big.NumGates())); err == nil {
		t.Error("oversized circuit accepted")
	}
	small, _ := bench.RandomCircuit(bench.RandomOptions{Inputs: 3, Outputs: 1, Gates: 5, Seed: 1})
	if _, err := ExactMaxToggle(small, []float64{1}); err == nil {
		t.Error("wrong weight count accepted")
	}
}

func TestExactMaxToggleAllZeroWeights(t *testing.T) {
	c, _ := bench.RandomCircuit(bench.RandomOptions{Inputs: 3, Outputs: 1, Gates: 5, Seed: 2})
	res, err := ExactMaxToggle(c, make([]float64, c.NumGates()))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxWeight != 0 || res.V1 == nil {
		t.Errorf("zero-weight result: %+v", res)
	}
}
