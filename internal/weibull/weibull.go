// Package weibull implements the generalized Weibull-type (reverse
// Weibull) extreme-value distribution of the paper's Eqn. (2.16),
//
//	G(x; α, β, μ) = exp(−β·(μ−x)^α)  for x ≤ μ,  1 for x > μ,
//
// together with the non-regular maximum-likelihood estimator of
// (α, β, μ) (Smith-style profile likelihood) and the least-squares CDF
// fit used by the paper's Figure 1. The location parameter μ is the
// distribution's right endpoint — for sample-maxima data it estimates the
// population maximum power.
//
// Note on the exponent sign: the paper prints exp(−β(μ−x)^{−α}), but its
// own Eqn. (2.5) (G_{2,α}(x) = exp(−(−x)^α) for x ≤ 0) and the relation
// β = (1/aₙ)^α require the exponent +α; this package implements the
// standard reverse Weibull.
package weibull

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// Dist is a generalized reverse-Weibull distribution. Alpha is the shape,
// Beta the scale factor, Mu the location (right endpoint).
type Dist struct {
	Alpha float64
	Beta  float64
	Mu    float64
}

// Valid reports whether the parameters define a proper distribution.
func (d Dist) Valid() bool {
	return d.Alpha > 0 && d.Beta > 0 && !math.IsNaN(d.Mu) && !math.IsInf(d.Mu, 0)
}

// CDF returns G(x).
func (d Dist) CDF(x float64) float64 {
	if x >= d.Mu {
		return 1
	}
	return math.Exp(-d.Beta * math.Pow(d.Mu-x, d.Alpha))
}

// PDF returns the density g(x) = αβ(μ−x)^{α−1}·G(x) for x < μ.
func (d Dist) PDF(x float64) float64 {
	if x >= d.Mu {
		return 0
	}
	y := d.Mu - x
	return d.Alpha * d.Beta * math.Pow(y, d.Alpha-1) * math.Exp(-d.Beta*math.Pow(y, d.Alpha))
}

// Quantile returns G⁻¹(q) = μ − (−ln q / β)^{1/α}. Quantile(1) = μ,
// Quantile(0) = −Inf.
func (d Dist) Quantile(q float64) float64 {
	switch {
	case math.IsNaN(q) || q < 0 || q > 1:
		return math.NaN()
	case q == 0:
		return math.Inf(-1)
	case q == 1:
		return d.Mu
	}
	return d.Mu - math.Pow(-math.Log(q)/d.Beta, 1/d.Alpha)
}

// UpperQuantile returns G⁻¹(1−p) computed without cancellation for tiny
// tail probabilities p (the finite-population estimator uses p = 1/|V|).
func (d Dist) UpperQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return d.Mu
	case p == 1:
		return math.Inf(-1)
	}
	// −ln(1−p) via Log1p keeps precision for p ~ 1e-6.
	return d.Mu - math.Pow(-math.Log1p(-p)/d.Beta, 1/d.Alpha)
}

// Rand draws one variate by inverse transform.
func (d Dist) Rand(rng *stats.RNG) float64 {
	u := rng.Float64()
	// Avoid u = 0 exactly (Quantile(0) = −Inf).
	if u == 0 {
		u = 0.5 / (1 << 53)
	}
	return d.Quantile(u)
}

// Mean returns E[X] = μ − β^{−1/α}·Γ(1 + 1/α).
func (d Dist) Mean() float64 {
	return d.Mu - math.Pow(d.Beta, -1/d.Alpha)*math.Gamma(1+1/d.Alpha)
}

// Variance returns Var[X] = β^{−2/α}·(Γ(1+2/α) − Γ(1+1/α)²).
func (d Dist) Variance() float64 {
	g1 := math.Gamma(1 + 1/d.Alpha)
	g2 := math.Gamma(1 + 2/d.Alpha)
	return math.Pow(d.Beta, -2/d.Alpha) * (g2 - g1*g1)
}

// LogLikelihood returns Σ log g(xᵢ); −Inf if any xᵢ ≥ μ.
func (d Dist) LogLikelihood(xs []float64) float64 {
	var ll float64
	la, lb := math.Log(d.Alpha), math.Log(d.Beta)
	for _, x := range xs {
		if x >= d.Mu {
			return math.Inf(-1)
		}
		y := d.Mu - x
		ll += la + lb + (d.Alpha-1)*math.Log(y) - d.Beta*math.Pow(y, d.Alpha)
	}
	return ll
}

// String renders the parameters.
func (d Dist) String() string {
	return fmt.Sprintf("RevWeibull(α=%.4g, β=%.4g, μ=%.6g)", d.Alpha, d.Beta, d.Mu)
}

// ErrDegenerate is returned when the sample cannot support a fit (too few
// distinct values).
var ErrDegenerate = errors.New("weibull: degenerate sample")

// ErrNoInteriorMax is returned when the profile likelihood has no interior
// maximum in μ (the data look Gumbel/heavy-tailed); callers typically fall
// back to the empirical maximum.
var ErrNoInteriorMax = errors.New("weibull: profile likelihood has no interior maximum")

// Fitter owns the scratch buffers and reusable closures of the
// profile-likelihood machinery, so a long-lived caller that refits after
// every hyper-sample (the estimator's steady state) allocates nothing per
// fit once the buffers are warm. The zero value is ready to use. A Fitter
// is NOT safe for concurrent use; the package-level FitMLE/FitMLEShape
// wrappers construct a fresh one per call and remain goroutine-safe.
type Fitter struct {
	// in holds a profile evaluation's log arguments, the shifted sample
	// y = μ − x in in[:n] and the scaled sample y/max y in in[n:], and
	// logs their logarithms; pw holds a sweep's powers.
	in, logs, pw []float64

	// shapeEq inputs, hoisted to fields so the closures handed to the
	// root solver are built once per Fitter rather than once per call.
	n      int
	m, s0  float64
	shapeF func(float64) float64
	shapeD func(float64) float64
	// Derivative cache: shapeF computes f'(α) as a by-product of the
	// same Exp loop that computes f(α); the solver always asks for the
	// derivative at the point it just evaluated, so shapeD is a lookup.
	// dB is that sweep's Σ yᵢ^α, which shapeMLE's closing β reuses when
	// the solve ends where it last swept.
	dAt, dVal, dB float64

	// goSweep makes every sweep call math.Exp, and every log pass
	// math.Log, even where the AVX-512 kernels run; declined counts the
	// sweeps the Exp kernel handed back to math.Exp. Only the tests read
	// them.
	goSweep  bool
	declined int

	// negProfile inputs for the golden-section refine, same idea.
	xs       []float64
	xmax     float64
	alphaMin float64
	negF     func(float64) float64
}

// scratch returns the len-2n log-argument and log buffers for a sample
// of n, growing them, and the sweep's power buffer, only when the
// sample outgrows the capacity.
func (ft *Fitter) scratch(n int) (in, logs []float64) {
	if cap(ft.pw) < n {
		ft.in = make([]float64, 2*n)
		ft.logs = make([]float64, 2*n)
		ft.pw = make([]float64, n)
	}
	return ft.in[:2*n], ft.logs[:2*n]
}

// logAll sets out[i] = math.Log(in[i]). The AVX-512 kernel computes the
// same float64s as math.Log, eight at a time; when it declines (a value
// that is not positive and finite), math.Log makes the whole pass.
func (ft *Fitter) logAll(out, in []float64) {
	if haveLogKernel && !ft.goSweep && logAVX512(&out[0], &in[0], len(in)) {
		return
	}
	for i, v := range in {
		out[i] = math.Log(v)
	}
}

// powers sets p[i] = yᵢ^a = math.Exp(a·logs[i]) and returns p. The
// AVX-512 kernel computes the same float64s as math.Exp, eight at a
// time; when it declines a sweep (a lane outside the normal range),
// math.Exp makes the whole sweep.
func (ft *Fitter) powers(logs []float64, a float64) []float64 {
	p := ft.pw[:len(logs)]
	if haveExpKernel && !ft.goSweep {
		if expAVX512(&p[0], &logs[0], len(p), a) {
			return p
		}
		ft.declined++
	}
	for i, l := range logs {
		p[i] = math.Exp(a * l)
	}
	return p
}

// shapeMLE solves the profile shape equation for fixed μ on the shifted
// sample y = μ − x held in ft.in[:n] (all entries must be positive):
//
//	m/α + Σ log yᵢ − m·(Σ yᵢ^α log yᵢ)/(Σ yᵢ^α) = 0
//
// subject to α ≥ alphaMin. The left side is strictly decreasing in α, so
// when it is already non-positive at alphaMin the constrained optimum sits
// on the boundary. Returns (α, logβ, ok). On success ft.logs[:n] holds
// log yᵢ.
func (ft *Fitter) shapeMLE(n int, alphaMin float64) (alpha, logBeta float64, ok bool) {
	in, logs := ft.in[:2*n], ft.logs[:2*n]
	y, ys := in[:n], in[n:]
	m := float64(n)
	// Scale by the maximum for overflow safety; the equation is
	// scale-invariant, and β is recovered in log space afterwards.
	c, ci := 0.0, 0
	for i, v := range y {
		if v > c {
			c, ci = v, i
		}
	}
	if c == 0 {
		return 0, 0, false
	}
	allEqual := true
	for i, v := range y {
		ys[i] = v / c
		if v != y[0] {
			allEqual = false
		}
	}
	if allEqual {
		return 0, 0, false
	}
	// One pass logs y and y/c; log c is then the lane of c itself.
	ft.logAll(logs, in)
	var s0 float64
	for _, l := range logs[n:] {
		s0 += l
	}
	ft.n, ft.m, ft.s0 = n, m, s0
	if ft.shapeF == nil {
		ft.shapeF = func(a float64) float64 {
			var A, B, C float64
			logs := ft.logs[ft.n : 2*ft.n]
			// yᵢ^α = exp(α·log yᵢ) over the cached logs: Exp costs roughly
			// half a Pow, and a fit makes about 830 of these sweeps — the
			// single hottest loop of the estimator. The derivative terms
			// A' = C and B' = A fall out of the same loop for two extra
			// multiplies, so Newton steps come at bisection-step cost.
			p := ft.powers(logs, a)
			for i, l := range logs {
				pl := p[i] * l
				B += p[i]
				A += pl
				C += pl * l
			}
			ft.dAt, ft.dB = a, B
			ft.dVal = -ft.m/(a*a) - ft.m*(C*B-A*A)/(B*B)
			return ft.m/a + ft.s0 - ft.m*A/B
		}
		ft.shapeD = func(a float64) float64 {
			if a != ft.dAt {
				ft.shapeF(a)
			}
			return ft.dVal
		}
	}
	f := ft.shapeF
	if alphaMin <= 0 {
		alphaMin = 1e-6
	}
	var a float64
	if flo := f(alphaMin); flo <= 0 {
		// Constrained optimum on the boundary (likelihood decreasing in α
		// beyond alphaMin).
		a = alphaMin
	} else {
		lo, hi := alphaMin, math.Max(2*alphaMin, 1)
		fhi := f(hi)
		for fhi > 0 {
			hi *= 2
			if hi > 1e9 {
				return 0, 0, false
			}
			fhi = f(hi)
		}
		// The profile equation is smooth and strictly decreasing in α, so
		// guarded Newton converges in a handful of iterations where plain
		// bisection to the same tolerance needs ~40 — and each iteration
		// is a full Exp sweep over the sample. The bracket's end values
		// are already in hand, so the solver does not sweep for them again.
		var err error
		a, err = stats.NewtonBisect(f, ft.shapeD, lo, hi, flo, fhi, (lo+hi)/2, 1e-12)
		if err != nil {
			return 0, 0, false
		}
	}
	// B = Σ exp(α̂·log yᵢ), the sum the last sweep made when the solve
	// ended where it last swept (always so on the α ≥ alphaMin clamp).
	B := ft.dB
	if a != ft.dAt {
		B = 0
		for _, v := range ft.powers(logs[n:], a) {
			B += v
		}
	}
	// β = m / Σ y^α = m / (c^α · B).
	logBeta = math.Log(m) - a*logs[ci] - math.Log(B)
	return a, logBeta, true
}

// profileLogLik returns the profile log-likelihood at location mu, i.e.
// the log-likelihood maximized over (α ≥ alphaMin, β) for that μ.
// ℓ*(μ) = m·log α̂ + m·log β̂ + (α̂−1)·Σ log yᵢ − m.
func (ft *Fitter) profileLogLik(xs []float64, mu, alphaMin float64) (ll float64, d Dist, ok bool) {
	n := len(xs)
	in, logs := ft.scratch(n)
	for i, x := range xs {
		v := mu - x
		if v <= 0 {
			return math.Inf(-1), Dist{}, false
		}
		in[i] = v
	}
	a, logB, ok := ft.shapeMLE(n, alphaMin)
	if !ok {
		return math.Inf(-1), Dist{}, false
	}
	var s0 float64
	for _, l := range logs[:n] {
		s0 += l
	}
	m := float64(n)
	ll = m*math.Log(a) + m*logB + (a-1)*s0 - m
	return ll, Dist{Alpha: a, Beta: math.Exp(logB), Mu: mu}, true
}

// DefaultAlphaMin is the shape lower bound used by FitMLE. The paper's
// Theorem 3 requires α > 2 for asymptotic normality and §3.2 argues α is
// always above 2 when the sample size is much smaller than |V|; imposing
// the constraint also removes the classic unbounded-likelihood pathology
// of the 3-parameter Weibull as μ → max(x).
const DefaultAlphaMin = 2.0

// FitResult reports an MLE fit.
type FitResult struct {
	Dist
	LogLik float64
	// AlphaBelow2 flags fits whose shape estimate violates the paper's
	// α > 2 regularity condition (Theorem 3 requires α > 2 for asymptotic
	// normality); the estimate is still returned.
	AlphaBelow2 bool
}

// FitMLE computes the maximum-likelihood reverse-Weibull fit under the
// paper's regularity constraint α ≥ 2 (DefaultAlphaMin). See FitMLEShape
// for the general form.
func FitMLE(xs []float64) (FitResult, error) {
	return FitMLEShape(xs, DefaultAlphaMin)
}

// FitMLEShape is the goroutine-safe form of Fitter.FitMLEShape: it builds
// a fresh Fitter per call, trading per-fit scratch allocations for
// statelessness. Hot loops hold a Fitter instead.
func FitMLEShape(xs []float64, alphaMin float64) (FitResult, error) {
	var ft Fitter
	return ft.FitMLEShape(xs, alphaMin)
}

// FitMLEShape computes the maximum-likelihood reverse-Weibull fit with
// shape constrained to α ≥ alphaMin, by profiling the likelihood over μ:
// an outer bracketed golden-section search on μ with the inner
// (β, α)-profile solved exactly. It requires at least 3 distinct sample
// values. When the profile likelihood has no interior maximum over μ it
// returns ErrNoInteriorMax. Passing alphaMin ≤ 0 removes the constraint
// (which reintroduces the unbounded-likelihood pathology for small
// samples — useful only for ablation). The fit does not retain xs. At
// steady state (warm scratch, same sample size) it performs no heap
// allocations.
func (ft *Fitter) FitMLEShape(xs []float64, alphaMin float64) (FitResult, error) {
	if len(xs) < 3 {
		return FitResult{}, ErrDegenerate
	}
	xmax, xmin := xs[0], xs[0]
	for _, x := range xs {
		if x > xmax {
			xmax = x
		}
		if x < xmin {
			xmin = x
		}
	}
	if xmax == xmin {
		return FitResult{}, ErrDegenerate
	}
	spread := xmax - xmin

	// Geometric grid of candidate offsets δ = μ − xmax spanning from a
	// small fraction of the spread to far beyond it.
	const gridN = 60
	loOff := spread * 1e-6
	hiOff := spread * 1e4
	ratio := math.Pow(hiOff/loOff, 1/float64(gridN-1))
	type pt struct {
		off float64
		ll  float64
	}
	var gridArr [gridN]pt // stack-resident: the grid never escapes
	grid := gridArr[:0]
	off := loOff
	for i := 0; i < gridN; i++ {
		ll, _, ok := ft.profileLogLik(xs, xmax+off, alphaMin)
		if ok {
			grid = append(grid, pt{off: off, ll: ll})
		}
		off *= ratio
	}
	if len(grid) < 3 {
		return FitResult{}, ErrNoInteriorMax
	}
	best := 0
	for i, p := range grid {
		if p.ll > grid[best].ll {
			best = i
		}
	}
	if best == 0 || best == len(grid)-1 {
		// No interior bracket: the likelihood is monotone over the
		// searched range (μ→xmax means α<~1 data; μ→∞ means Gumbel-ish).
		return FitResult{}, ErrNoInteriorMax
	}

	// Golden-section refine on log-offset between the bracket neighbours.
	lo := math.Log(grid[best-1].off)
	hi := math.Log(grid[best+1].off)
	ft.xs, ft.xmax, ft.alphaMin = xs, xmax, alphaMin
	if ft.negF == nil {
		ft.negF = func(t float64) float64 {
			ll, _, ok := ft.profileLogLik(ft.xs, ft.xmax+math.Exp(t), ft.alphaMin)
			if !ok {
				return math.Inf(1)
			}
			return -ll
		}
	}
	tOpt := stats.GoldenSection(ft.negF, lo, hi, 1e-10)
	ft.xs = nil // do not retain the caller's sample past the call
	ll, d, ok := ft.profileLogLik(xs, xmax+math.Exp(tOpt), alphaMin)
	if !ok || !d.Valid() {
		return FitResult{}, ErrNoInteriorMax
	}
	return FitResult{Dist: d, LogLik: ll, AlphaBelow2: d.Alpha <= 2}, nil
}

// FitLSQ fits by least squares between the model CDF and the empirical
// plotting positions pᵢ = i/(n+1) of the sorted sample — the unstable
// curve-fitting alternative the paper's §3.1 discusses (and Figure 1
// uses). Optimization is Nelder–Mead over (log α, log β, log(μ−max x)).
func FitLSQ(xs []float64) (FitResult, error) {
	if len(xs) < 3 {
		return FitResult{}, ErrDegenerate
	}
	sorted := stats.NewECDF(xs).Sorted()
	xmax := sorted[len(sorted)-1]
	xmin := sorted[0]
	if xmax == xmin {
		return FitResult{}, ErrDegenerate
	}
	n := float64(len(sorted))
	spread := xmax - xmin

	sse := func(theta []float64) float64 {
		d := Dist{
			Alpha: math.Exp(theta[0]),
			Beta:  math.Exp(theta[1]),
			Mu:    xmax + math.Exp(theta[2]),
		}
		if !d.Valid() {
			return math.Inf(1)
		}
		var s float64
		for i, x := range sorted {
			p := float64(i+1) / (n + 1)
			e := d.CDF(x) - p
			s += e * e
		}
		return s
	}
	// Moment-flavoured start: α ≈ 2, β scaled so that the spread maps to
	// roughly unit exponent, μ slightly above the sample max.
	start := []float64{
		math.Log(2),
		-2 * math.Log(spread),
		math.Log(spread * 0.1),
	}
	theta, val := stats.NelderMead(sse, start, 0.5, 1e-14, 4000)
	d := Dist{Alpha: math.Exp(theta[0]), Beta: math.Exp(theta[1]), Mu: xmax + math.Exp(theta[2])}
	if !d.Valid() || math.IsInf(val, 1) {
		return FitResult{}, ErrNoInteriorMax
	}
	return FitResult{Dist: d, LogLik: d.LogLikelihood(xs), AlphaBelow2: d.Alpha <= 2}, nil
}

// KSAgainst returns the Kolmogorov–Smirnov distance between the sample and
// the fitted distribution (a goodness-of-fit diagnostic for Figure 1).
func (d Dist) KSAgainst(xs []float64) float64 {
	return stats.KSStatistic(xs, d.CDF)
}
