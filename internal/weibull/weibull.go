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

// Fitter holds what a fit keeps between calls: the lane scratch of
// samples too large for FitMLEShape's stack buffer. A long-lived caller
// that refits after every hyper-sample (the estimator's steady state)
// allocates nothing per fit once that scratch is warm, and a fit of a
// small sample allocates nothing at all, so a new Fitter costs nothing
// either. The zero value is ready to use. A Fitter is NOT safe for
// concurrent use; the package-level FitMLE/FitMLEShape wrappers
// construct a fresh one per call and remain goroutine-safe.
type Fitter struct {
	heap []float64

	// goSweep makes every sweep call math.Exp, and every log pass
	// math.Log, even where the AVX-512 kernels run; declined counts the
	// rounds the Exp kernel handed back to math.Exp. Only the tests read
	// them.
	goSweep  bool
	declined int
}

// maxLanes is how many profile evaluations advance in lockstep. One
// evaluation's sweeps form a chain of Exp calls, each waiting on the
// last; a round of 15 lanes runs 15 independent chains through one
// call, so their latencies overlap. 6 to 60 lanes cost about the same
// per evaluation.
const maxLanes = 15

// stackFloats is the lane scratch FitMLEShape keeps on its stack: 15
// lanes up to m = 17, at least one up to m = 256. Larger samples take
// the Fitter's heap scratch, bounded by laneBudget.
const (
	stackFloats = 1 << 10
	laneBudget  = 8 << 10 // 64 KiB
)

// laneFloats is the lane scratch of k lanes on a sample of m: per lane
// 2m logs, m exponents and m powers.
func laneFloats(m, k int) int { return 4 * k * m }

// laneCount is how many lanes of a sample of m fit in budget float64s,
// at least one and at most maxLanes.
func laneCount(m, budget int) int {
	return max(1, min(maxLanes, budget/(4*m)))
}

// profile is one profile-likelihood evaluation: at its μ, the shape α̂
// and log β̂ that maximise the likelihood, and the log-likelihood ll
// there; ok is false when the sample does not support them.
type profile struct {
	ll, alpha, logBeta float64
	ok                 bool
}

// Steps of a lane's shape solve.
const (
	solveMin     = iota // sweep at alphaMin
	solveBracket        // double hi until f(hi) ≤ 0
	solveNewton         // the guarded Newton solve
	solveClose          // one sweep for Σ yᵢ^α̂
)

// lane is one profile evaluation in flight: the sample shifted to
// y = μ − x and scaled to y/c by c = max y, and the solve of the shape
// equation on it for fixed μ,
//
//	f(α) = m/α + Σ log(yᵢ/c) − m·(Σ (yᵢ/c)^α log(yᵢ/c))/(Σ (yᵢ/c)^α) = 0
//
// subject to α ≥ alphaMin. f is strictly decreasing in α, so when it is
// already non-positive at alphaMin the constrained optimum sits on the
// boundary; otherwise doubling brackets the root and guarded Newton
// finds it. The scaling guards against overflow: the equation is
// scale-invariant, and β is recovered in log space afterwards. The lane
// asks for one sweep at a time, at a.
type lane struct {
	j, s         int     // its μ and result are the j-th, its logs in slot s
	ci           int     // the index of c
	logC, s0, sy float64 // log c, Σ log(yᵢ/c), Σ log yᵢ
	step         int
	a            float64 // the α of the next sweep
	A, B, C      float64 // the last sweep's sums
	lo, hi, flo  float64
	nb           stats.NewtonBisect
}

// advance takes the sweep at l.a, A = Σ pᵢ·lᵢ, B = Σ pᵢ and C = Σ pᵢ·lᵢ²
// for pᵢ = (yᵢ/c)^a and lᵢ = log(yᵢ/c), and moves the solve one step. It
// returns whether the lane needs another sweep, at l.a; when it does
// not, out holds the lane's result.
func (l *lane) advance(m, logM, A, B, C float64, out *profile) bool {
	a := l.a
	f := m/a + l.s0 - m*A/B
	var (
		x    float64
		done bool
		err  error
	)
	switch l.step {
	case solveMin:
		if f <= 0 {
			// Constrained optimum on the boundary (likelihood
			// decreasing in α beyond alphaMin).
			return l.finish(m, logM, a, B, out)
		}
		l.lo, l.hi, l.flo = a, math.Max(2*a, 1), f
		l.step, l.a = solveBracket, l.hi
		return true
	case solveBracket:
		if f > 0 {
			l.hi *= 2
			if l.hi > 1e9 {
				return false
			}
			l.a = l.hi
			return true
		}
		// The profile equation is smooth and strictly decreasing in α,
		// so guarded Newton converges in a handful of iterations where
		// plain bisection to the same tolerance needs ~40, and each
		// iteration is a full Exp sweep over the sample. The bracket's
		// end values are already in hand, so the solver does not sweep
		// for them again.
		x, done, err = l.nb.Start(l.lo, l.hi, l.flo, f, (l.lo+l.hi)/2, 1e-12)
	case solveNewton:
		// The derivative terms A' = C and B' = A fall out of the same
		// sweep for two extra multiplies, so Newton steps come at
		// bisection-step cost.
		df := -m/(a*a) - m*(C*B-A*A)/(B*B)
		x, done, err = l.nb.Step(f, df)
	case solveClose:
		return l.finish(m, logM, a, B, out)
	}
	switch {
	case err != nil:
		return false
	case !done:
		l.step, l.a = solveNewton, x
		return true
	case x == a:
		// The solve ended where it last swept, so that sweep's B is
		// Σ (yᵢ/c)^α̂.
		return l.finish(m, logM, a, B, out)
	}
	l.step, l.a = solveClose, x
	return true
}

// finish sets out from α̂ = a and B = Σ (yᵢ/c)^α̂: β̂ = m / Σ yᵢ^α̂ =
// m / (c^α̂·B), and the profile log-likelihood
// ℓ*(μ) = m·log α̂ + m·log β̂ + (α̂−1)·Σ log yᵢ − m.
func (l *lane) finish(m, logM, a, B float64, out *profile) bool {
	logBeta := logM - a*l.logC - math.Log(B)
	ll := m*math.Log(a) + m*logBeta + (a-1)*l.sy - m
	*out = profile{ll: ll, alpha: a, logBeta: logBeta, ok: true}
	return false
}

// lanes is the scratch of up to len(st) profile evaluations of one
// sample in lockstep. The lanes hold no pointers, so that the scratch
// can live on FitMLEShape's stack.
type lanes struct {
	xs       []float64
	m        float64
	logM     float64 // log m, taken once per fit
	alphaMin float64
	logs     []float64 // 2m per lane: log y, then log(y/c)
	// tp is t‖p: while lanes are set up, 2m per lane of y, then y/c;
	// then t holds m per lane of a round's α·log(yᵢ/c), p their exps.
	tp, t, p []float64
	st       []lane
}

// makeLanes carves the scratch of len(st) lanes on the sample xs out of
// buf, which holds at least laneFloats(len(xs), len(st)) float64s.
// alphaMin ≤ 0 selects 1e-6.
func makeLanes(buf []float64, st []lane, xs []float64, alphaMin float64) lanes {
	n, k := len(xs), len(st)
	if alphaMin <= 0 {
		alphaMin = 1e-6
	}
	m := float64(n)
	tp := buf[2*k*n : 4*k*n]
	return lanes{
		xs: xs, m: m, logM: math.Log(m), alphaMin: alphaMin,
		logs: buf[:2*k*n],
		tp:   tp, t: tp[:k*n], p: tp[k*n:],
		st: st,
	}
}

// profiles evaluates the profile log-likelihood at each μ of mus into
// out, len(ls.st) lanes at a time.
func (ft *Fitter) profiles(ls *lanes, mus []float64, out []profile) {
	for len(mus) > 0 {
		k := min(len(ls.st), len(mus))
		ft.lockstep(ls, mus[:k], out[:k])
		mus, out = mus[k:], out[k:]
	}
}

// lockstep evaluates the profiles of up to len(ls.st) values of μ
// together. It sets every lane up and logs all their values in one
// pass. Then a round takes the powers of every unfinished lane in one
// call, sums each lane, and only then moves each lane's solve one step,
// so the lanes' chains of dependent sweeps overlap and the solves'
// branches stay out of the summing. Unfinished lanes are kept first in
// ls.st, and lane r's exponents at t[r·m:(r+1)·m].
func (ft *Fitter) lockstep(ls *lanes, mus []float64, out []profile) {
	n := len(ls.xs)
	live := 0
	for j, mu := range mus {
		out[j] = profile{ll: math.Inf(-1)}
		if ci, ok := ls.shift(live, mu); ok {
			ls.st[live] = lane{j: j, s: live, ci: ci}
			live++
		}
	}
	if live == 0 {
		return
	}
	ft.logAll(ls.logs[:2*live*n], ls.tp[:2*live*n])
	for r := range ls.st[:live] {
		ls.start(r)
	}
	for live > 1 {
		st, p := ls.st[:live], ls.p[:live*n]
		ft.exps(p, ls.t[:live*n], 1)
		for r := range st {
			st[r].A, st[r].B, st[r].C = sums(p[r*n:(r+1)*n], ls.lys(st[r].s))
		}
		for r := 0; r < live; {
			l := &st[r]
			if l.advance(ls.m, ls.logM, l.A, l.B, l.C, &out[l.j]) {
				ls.exponents(r)
				r++
				continue
			}
			live--
			st[r] = st[live]
		}
	}
	if live == 1 {
		// The last lane alone: the kernel's own multiply rounds
		// α·log(yᵢ/c) as the exponents do, and the sums go straight to
		// the solve.
		l, p := &ls.st[0], ls.p[:n]
		lys := ls.lys(l.s)
		for {
			ft.exps(p, lys, l.a)
			A, B, C := sums(p, lys)
			if !l.advance(ls.m, ls.logM, A, B, C, &out[l.j]) {
				return
			}
		}
	}
}

// shift writes y = μ − x, then y/c for c = max y, to set-up slot r and
// returns the index of c. It returns false when the sample does not
// support a fit at μ: some y ≤ 0, or every y equal.
func (ls *lanes) shift(r int, mu float64) (ci int, ok bool) {
	n := len(ls.xs)
	in := ls.tp[2*r*n : 2*(r+1)*n]
	y, ys := in[:n], in[n:]
	for i, x := range ls.xs {
		v := mu - x
		if v <= 0 {
			return 0, false
		}
		y[i] = v
	}
	c := 0.0
	for i, v := range y {
		if v > c {
			c, ci = v, i
		}
	}
	if c == 0 {
		return 0, false
	}
	allEqual := true
	for i, v := range y {
		ys[i] = v / c
		if v != y[0] {
			allEqual = false
		}
	}
	return ci, !allEqual
}

// start begins lane r's solve once its logs are in: log c is the log of
// y's largest value, and the solve's first sweep is at alphaMin.
func (ls *lanes) start(r int) {
	l := &ls.st[r]
	n := len(ls.xs)
	logs := ls.logs[2*l.s*n : 2*(l.s+1)*n]
	var s0, sy float64
	for _, v := range logs[n:] {
		s0 += v
	}
	for _, v := range logs[:n] {
		sy += v
	}
	l.logC, l.s0, l.sy, l.step, l.a = logs[l.ci], s0, sy, solveMin, ls.alphaMin
	ls.exponents(r)
}

// sums returns A = Σ pᵢ·lᵢ, B = Σ pᵢ and C = Σ pᵢ·lᵢ², summed in index
// order.
func sums(p, lys []float64) (A, B, C float64) {
	p = p[:len(lys)]
	for i, l := range lys {
		pl := p[i] * l
		B += p[i]
		A += pl
		C += pl * l
	}
	return A, B, C
}

// exponents writes lane r's α·log(yᵢ/c) to its place in t, well before
// the round that takes their powers.
func (ls *lanes) exponents(r int) {
	a, lys := ls.st[r].a, ls.lys(ls.st[r].s)
	t := ls.t[r*len(lys) : (r+1)*len(lys)]
	for i, l := range lys {
		t[i] = a * l
	}
}

// lys returns log(yᵢ/c) of log slot s, the input of a lane's sweeps.
func (ls *lanes) lys(s int) []float64 {
	n := len(ls.xs)
	return ls.logs[(2*s+1)*n : 2*(s+1)*n]
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

// exps sets p[i] = math.Exp(a·x[i]). The AVX-512 kernel computes the
// same float64s as math.Exp, eight at a time; at a = 1 it reads x[i]
// exactly. When it declines a round (a lane outside the normal range),
// math.Exp makes the whole round.
func (ft *Fitter) exps(p, x []float64, a float64) {
	if haveExpKernel && !ft.goSweep {
		if expAVX512(&p[0], &x[0], len(x), a) {
			return
		}
		ft.declined++
	}
	for i, v := range x {
		p[i] = math.Exp(a * v)
	}
}

// DefaultAlphaMin is the shape lower bound used by FitMLE and by every
// hyper-sample fit of the estimator (internal/evt). The paper's
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
// a fresh Fitter per call. A sample of up to 256 values keeps all its
// scratch on the stack, so this costs nothing; hot loops over larger
// samples hold a Fitter instead.
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
// samples — useful only for ablation). The fit does not retain xs. It
// performs no heap allocations on a sample of up to 256 values, and on
// a larger one none once the Fitter's scratch is warm.
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

	// Lane scratch on the stack, or for a large sample on the Fitter's
	// heap, so that neither a warm Fitter nor a new one allocates.
	var (
		stack [stackFloats]float64
		st    [maxLanes]lane
	)
	m := len(xs)
	buf, k := stack[:], laneCount(m, stackFloats)
	if laneFloats(m, k) > stackFloats {
		k = laneCount(m, laneBudget)
		if need := laneFloats(m, k); cap(ft.heap) < need {
			ft.heap = make([]float64, need)
		}
		buf = ft.heap
	}
	ls := makeLanes(buf, st[:k], xs, alphaMin)

	// Geometric grid of candidate offsets δ = μ − xmax spanning from a
	// small fraction of the spread to far beyond it, evaluated in
	// lockstep.
	const gridN = 60
	loOff := spread * 1e-6
	hiOff := spread * 1e4
	ratio := math.Pow(hiOff/loOff, 1/float64(gridN-1))
	var (
		offs, mus [gridN]float64
		prof      [gridN]profile
	)
	off := loOff
	for i := range offs {
		offs[i], mus[i] = off, xmax+off
		off *= ratio
	}
	ft.profiles(&ls, mus[:], prof[:])
	type pt struct {
		off float64
		ll  float64
	}
	var gridArr [gridN]pt
	grid := gridArr[:0]
	for i, p := range prof {
		if p.ok {
			grid = append(grid, pt{off: offs[i], ll: p.ll})
		}
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

	// Golden-section refine on log-offset between the bracket
	// neighbours, one lane per evaluation.
	var one [1]profile
	at := func(mu float64) profile {
		ft.profiles(&ls, []float64{mu}, one[:])
		return one[0]
	}
	tOpt := stats.GoldenSection(func(t float64) float64 {
		p := at(xmax + math.Exp(t))
		if !p.ok {
			return math.Inf(1)
		}
		return -p.ll
	}, math.Log(grid[best-1].off), math.Log(grid[best+1].off), 1e-10)
	mu := xmax + math.Exp(tOpt)
	p := at(mu)
	d := Dist{Alpha: p.alpha, Beta: math.Exp(p.logBeta), Mu: mu}
	if !p.ok || !d.Valid() {
		return FitResult{}, ErrNoInteriorMax
	}
	return FitResult{Dist: d, LogLik: p.ll, AlphaBelow2: d.Alpha <= 2}, nil
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
