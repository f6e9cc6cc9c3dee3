package stats

import (
	"errors"
	"math"
)

// ErrNoBracket is returned when a root or minimum cannot be bracketed in the
// supplied interval.
var ErrNoBracket = errors.New("stats: no bracket found")

// ErrNoConverge is returned when an iterative method exhausts its iteration
// budget without meeting its tolerance.
var ErrNoConverge = errors.New("stats: iteration did not converge")

// Bisect finds a root of f in [lo, hi] where f(lo) and f(hi) have opposite
// signs, to absolute x-tolerance tol. It returns ErrNoBracket if the signs
// agree.
func Bisect(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, ErrNoBracket
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		fm := f(mid)
		if fm == 0 || hi-lo < tol {
			return mid, nil
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// NewtonBisect finds a root of f in a bracket [lo, hi] by Newton steps
// guarded by bisection, one evaluation at a time: Start checks the
// bracket and names the first point, and each Step takes f and f′ at
// the point last named and names the next, until the root is found. A
// caller with several roots to find keeps one NewtonBisect per root and
// can evaluate their points together. The zero value is ready for Start.
type NewtonBisect struct {
	lo, hi, flo, tol, x float64
	steps               int
}

// Start begins a solve on [lo, hi] from x0, or from the midpoint when x0
// is not inside the bracket. flo and fhi are f(lo) and f(hi), which a
// caller has in hand from bracketing the root; they must differ in sign,
// or Start returns ErrNoBracket. It returns the point at which to
// evaluate f and f′ next or, when done, the root.
func (s *NewtonBisect) Start(lo, hi, flo, fhi, x0, tol float64) (x float64, done bool, err error) {
	if flo == 0 {
		return lo, true, nil
	}
	if fhi == 0 {
		return hi, true, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, true, ErrNoBracket
	}
	x = x0
	if x <= lo || x >= hi {
		x = (lo + hi) / 2
	}
	*s = NewtonBisect{lo: lo, hi: hi, flo: flo, tol: tol, x: x}
	return x, false, nil
}

// Step takes fx = f(x) and dfx = f′(x) at the point x that Start or the
// last Step returned, and returns the next point or, when done, the
// root. A Newton step that leaves the shrinking bracket, or a zero or
// NaN derivative, bisects instead. The solve ends when a step moves x
// by at most tol·(1 + |x|), and fails with ErrNoConverge after 200
// steps.
func (s *NewtonBisect) Step(fx, dfx float64) (next float64, done bool, err error) {
	x := s.x
	if fx == 0 {
		return x, true, nil
	}
	if (fx > 0) == (s.flo > 0) {
		s.lo = x
	} else {
		s.hi = x
	}
	if dfx != 0 {
		next = x - fx/dfx
	}
	if dfx == 0 || next <= s.lo || next >= s.hi || math.IsNaN(next) {
		next = (s.lo + s.hi) / 2
	}
	if math.Abs(next-x) <= s.tol*(1+math.Abs(x)) {
		return next, true, nil
	}
	s.x = next
	if s.steps++; s.steps == 200 {
		return next, true, ErrNoConverge
	}
	return next, false, nil
}

// GoldenSection minimizes a unimodal function f on [lo, hi] to x-tolerance
// tol and returns the minimizing x.
func GoldenSection(f func(float64) float64, lo, hi, tol float64) float64 {
	const invPhi = 0.6180339887498949 // (√5 − 1)/2
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	return (a + b) / 2
}

// NelderMead minimizes f over R^dim starting from x0 with initial simplex
// scale step. It returns the best point found and its value after maxIter
// iterations or when the simplex collapses below tol.
func NelderMead(f func([]float64) float64, x0 []float64, step, tol float64, maxIter int) ([]float64, float64) {
	dim := len(x0)
	if dim == 0 {
		panic("stats: NelderMead with empty start point")
	}
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	type vertex struct {
		x []float64
		f float64
	}
	simplex := make([]vertex, dim+1)
	for i := range simplex {
		x := append([]float64(nil), x0...)
		if i > 0 {
			x[i-1] += step
		}
		simplex[i] = vertex{x: x, f: f(x)}
	}
	sortSimplex := func() {
		for i := 1; i < len(simplex); i++ {
			v := simplex[i]
			j := i - 1
			for j >= 0 && simplex[j].f > v.f {
				simplex[j+1] = simplex[j]
				j--
			}
			simplex[j+1] = v
		}
	}
	centroid := make([]float64, dim)
	trial := make([]float64, dim)

	for iter := 0; iter < maxIter; iter++ {
		sortSimplex()
		best, worst := simplex[0], simplex[dim]
		if math.Abs(worst.f-best.f) <= tol*(math.Abs(best.f)+tol) {
			break
		}
		// Centroid of all but the worst vertex.
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i < dim; i++ {
			for j, xj := range simplex[i].x {
				centroid[j] += xj / float64(dim)
			}
		}
		// Reflection.
		for j := range trial {
			trial[j] = centroid[j] + alpha*(centroid[j]-worst.x[j])
		}
		fr := f(trial)
		switch {
		case fr < best.f:
			// Expansion.
			exp := make([]float64, dim)
			for j := range exp {
				exp[j] = centroid[j] + gamma*(trial[j]-centroid[j])
			}
			fe := f(exp)
			if fe < fr {
				simplex[dim] = vertex{x: exp, f: fe}
			} else {
				simplex[dim] = vertex{x: append([]float64(nil), trial...), f: fr}
			}
		case fr < simplex[dim-1].f:
			simplex[dim] = vertex{x: append([]float64(nil), trial...), f: fr}
		default:
			// Contraction.
			for j := range trial {
				trial[j] = centroid[j] + rho*(worst.x[j]-centroid[j])
			}
			fc := f(trial)
			if fc < worst.f {
				simplex[dim] = vertex{x: append([]float64(nil), trial...), f: fc}
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= dim; i++ {
					for j := range simplex[i].x {
						simplex[i].x[j] = best.x[j] + sigma*(simplex[i].x[j]-best.x[j])
					}
					simplex[i].f = f(simplex[i].x)
				}
			}
		}
	}
	sortSimplex()
	return simplex[0].x, simplex[0].f
}
