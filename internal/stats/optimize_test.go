package stats

import (
	"math"
	"testing"
)

func TestBisectFindsRoot(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	root, err := Bisect(f, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(root, math.Sqrt2, 1e-10) {
		t.Errorf("root = %v, want √2", root)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, 1e-9); err != ErrNoBracket {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBisectExactEndpoints(t *testing.T) {
	f := func(x float64) float64 { return x }
	if root, err := Bisect(f, 0, 1, 1e-9); err != nil || root != 0 {
		t.Errorf("root = %v err = %v", root, err)
	}
	if root, err := Bisect(f, -1, 0, 1e-9); err != nil || root != 0 {
		t.Errorf("root = %v err = %v", root, err)
	}
}

// newtonRoot drives a NewtonBisect on f and df from [lo, hi] to the end.
func newtonRoot(f, df func(float64) float64, lo, hi, x0, tol float64) (root float64, steps int, err error) {
	var s NewtonBisect
	x, done, err := s.Start(lo, hi, f(lo), f(hi), x0, tol)
	for !done {
		x, done, err = s.Step(f(x), df(x))
		steps++
	}
	return x, steps, err
}

func TestNewtonBisect(t *testing.T) {
	// cos(x) = x has root ≈ 0.7390851332151607.
	f := func(x float64) float64 { return math.Cos(x) - x }
	df := func(x float64) float64 { return -math.Sin(x) - 1 }
	root, _, err := newtonRoot(f, df, 0, 1, 0.5, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(root, 0.7390851332151607, 1e-10) {
		t.Errorf("root = %v", root)
	}
	// The bracket's ends: a zero end is the root, equal signs no bracket.
	g := func(x float64) float64 { return x }
	one := func(float64) float64 { return 1 }
	if root, steps, err := newtonRoot(g, one, 0, 1, 0.5, 1e-12); root != 0 || steps != 0 || err != nil {
		t.Errorf("root at lo: %v after %d steps, %v", root, steps, err)
	}
	if root, steps, err := newtonRoot(g, one, -1, 0, 0.5, 1e-12); root != 0 || steps != 0 || err != nil {
		t.Errorf("root at hi: %v after %d steps, %v", root, steps, err)
	}
	if _, _, err := newtonRoot(g, one, 1, 2, 1.5, 1e-12); err != ErrNoBracket {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
	// A NaN f never settles the bracket to tol 0 within 200 steps.
	nan := func(float64) float64 { return math.NaN() }
	var s NewtonBisect
	x, done, err := s.Start(0, 1, 1, -1, 0.5, 0)
	steps := 0
	for !done {
		x, done, err = s.Step(nan(x), 1)
		steps++
	}
	if err != ErrNoConverge || steps != 200 {
		t.Errorf("NaN f: err %v after %d steps, want ErrNoConverge after 200", err, steps)
	}
}

func TestNewtonBisectBadDerivative(t *testing.T) {
	// Derivative returning zero must fall back to bisection and still work.
	f := func(x float64) float64 { return x - 0.3 }
	df := func(x float64) float64 { return 0 }
	root, _, err := newtonRoot(f, df, 0, 1, 0.9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(root, 0.3, 1e-9) {
		t.Errorf("root = %v", root)
	}
}

func TestGoldenSection(t *testing.T) {
	f := func(x float64) float64 { return (x - 1.5) * (x - 1.5) }
	x := GoldenSection(f, -10, 10, 1e-10)
	if !almostEqual(x, 1.5, 1e-7) {
		t.Errorf("minimizer = %v, want 1.5", x)
	}
	// Asymmetric unimodal function.
	g := func(x float64) float64 { return math.Exp(x) - 3*x }
	xg := GoldenSection(g, 0, 5, 1e-10)
	if !almostEqual(xg, math.Log(3), 1e-7) {
		t.Errorf("minimizer = %v, want ln3", xg)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	rosen := func(v []float64) float64 {
		x, y := v[0], v[1]
		return (1-x)*(1-x) + 100*(y-x*x)*(y-x*x)
	}
	x, fv := NelderMead(rosen, []float64{-1.2, 1}, 0.5, 1e-14, 5000)
	if fv > 1e-8 {
		t.Errorf("Rosenbrock minimum value = %v at %v", fv, x)
	}
	if math.Abs(x[0]-1) > 1e-3 || math.Abs(x[1]-1) > 1e-3 {
		t.Errorf("Rosenbrock minimizer = %v, want (1,1)", x)
	}
}

func TestNelderMeadQuadratic3D(t *testing.T) {
	target := []float64{2, -3, 0.5}
	f := func(v []float64) float64 {
		var s float64
		for i := range v {
			d := v[i] - target[i]
			s += d * d * float64(i+1)
		}
		return s
	}
	x, fv := NelderMead(f, []float64{0, 0, 0}, 1, 1e-15, 3000)
	if fv > 1e-10 {
		t.Errorf("quadratic minimum = %v at %v", fv, x)
	}
}

func TestNelderMeadEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty start did not panic")
		}
	}()
	NelderMead(func(v []float64) float64 { return 0 }, nil, 1, 1e-9, 10)
}
