package weibull

import (
	"errors"
	"math"
	"testing"

	"repro/internal/stats"
)

// serialFitter is the profile likelihood as it was evaluated before the
// lanes: one μ at a time, its shape solve a chain of sweeps through
// closures and a callback Newton solver, each sweep one Exp kernel call
// that multiplies α in itself. TestProfileLanesMatchSerial holds the
// lanes to its bits.
type serialFitter struct {
	in, logs, pw  []float64
	n             int
	m, s0         float64
	shapeF        func(float64) float64
	shapeD        func(float64) float64
	dAt, dVal, dB float64
	goSweep       bool

	// mus and profs record every μ the fit evaluated, in order, and
	// what each evaluation returned.
	mus   []float64
	profs []profile
}

func (ft *serialFitter) scratch(n int) (in, logs []float64) {
	if cap(ft.pw) < n {
		ft.in = make([]float64, 2*n)
		ft.logs = make([]float64, 2*n)
		ft.pw = make([]float64, n)
	}
	return ft.in[:2*n], ft.logs[:2*n]
}

func (ft *serialFitter) logAll(out, in []float64) {
	if haveLogKernel && !ft.goSweep && logAVX512(&out[0], &in[0], len(in)) {
		return
	}
	for i, v := range in {
		out[i] = math.Log(v)
	}
}

func (ft *serialFitter) powers(logs []float64, a float64) []float64 {
	p := ft.pw[:len(logs)]
	if haveExpKernel && !ft.goSweep && expAVX512(&p[0], &logs[0], len(p), a) {
		return p
	}
	for i, l := range logs {
		p[i] = math.Exp(a * l)
	}
	return p
}

// newtonBisectCallback is stats.NewtonBisect in its callback form.
func newtonBisectCallback(f, df func(float64) float64, lo, hi, flo, fhi, x0, tol float64) (float64, error) {
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, stats.ErrNoBracket
	}
	x := x0
	if x <= lo || x >= hi {
		x = (lo + hi) / 2
	}
	for i := 0; i < 200; i++ {
		fx := f(x)
		if fx == 0 {
			return x, nil
		}
		if (fx > 0) == (flo > 0) {
			lo = x
		} else {
			hi = x
		}
		d := df(x)
		var next float64
		if d != 0 {
			next = x - fx/d
		}
		if d == 0 || next <= lo || next >= hi || math.IsNaN(next) {
			next = (lo + hi) / 2
		}
		if math.Abs(next-x) <= tol*(1+math.Abs(x)) {
			return next, nil
		}
		x = next
	}
	return x, stats.ErrNoConverge
}

func (ft *serialFitter) shapeMLE(n int, alphaMin float64) (alpha, logBeta float64, ok bool) {
	in, logs := ft.in[:2*n], ft.logs[:2*n]
	y, ys := in[:n], in[n:]
	m := float64(n)
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
		var err error
		a, err = newtonBisectCallback(f, ft.shapeD, lo, hi, flo, fhi, (lo+hi)/2, 1e-12)
		if err != nil {
			return 0, 0, false
		}
	}
	B := ft.dB
	if a != ft.dAt {
		B = 0
		for _, v := range ft.powers(logs[n:], a) {
			B += v
		}
	}
	logBeta = math.Log(m) - a*logs[ci] - math.Log(B)
	return a, logBeta, true
}

func (ft *serialFitter) profileLogLik(xs []float64, mu, alphaMin float64) profile {
	p := ft.evaluate(xs, mu, alphaMin)
	ft.mus, ft.profs = append(ft.mus, mu), append(ft.profs, p)
	return p
}

func (ft *serialFitter) evaluate(xs []float64, mu, alphaMin float64) profile {
	n := len(xs)
	in, logs := ft.scratch(n)
	for i, x := range xs {
		v := mu - x
		if v <= 0 {
			return profile{ll: math.Inf(-1)}
		}
		in[i] = v
	}
	a, logB, ok := ft.shapeMLE(n, alphaMin)
	if !ok {
		return profile{ll: math.Inf(-1)}
	}
	var s0 float64
	for _, l := range logs[:n] {
		s0 += l
	}
	m := float64(n)
	ll := m*math.Log(a) + m*logB + (a-1)*s0 - m
	return profile{ll: ll, alpha: a, logBeta: logB, ok: true}
}

// fit is FitMLEShape as it was: the grid, the golden section and the
// final evaluation, each profile evaluated alone.
func (ft *serialFitter) fit(xs []float64, alphaMin float64) (FitResult, error) {
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
	const gridN = 60
	loOff := spread * 1e-6
	hiOff := spread * 1e4
	ratio := math.Pow(hiOff/loOff, 1/float64(gridN-1))
	type pt struct{ off, ll float64 }
	var grid []pt
	off := loOff
	for i := 0; i < gridN; i++ {
		if p := ft.profileLogLik(xs, xmax+off, alphaMin); p.ok {
			grid = append(grid, pt{off: off, ll: p.ll})
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
		return FitResult{}, ErrNoInteriorMax
	}
	tOpt := stats.GoldenSection(func(t float64) float64 {
		p := ft.profileLogLik(xs, xmax+math.Exp(t), alphaMin)
		if !p.ok {
			return math.Inf(1)
		}
		return -p.ll
	}, math.Log(grid[best-1].off), math.Log(grid[best+1].off), 1e-10)
	mu := xmax + math.Exp(tOpt)
	p := ft.profileLogLik(xs, mu, alphaMin)
	d := Dist{Alpha: p.alpha, Beta: math.Exp(p.logBeta), Mu: mu}
	if !p.ok || !d.Valid() {
		return FitResult{}, ErrNoInteriorMax
	}
	return FitResult{Dist: d, LogLik: p.ll, AlphaBelow2: d.Alpha <= 2}, nil
}

// profileBits is the bit pattern of an evaluation, so that NaN compares
// equal to itself.
func profileBits(p profile) [4]uint64 {
	ok := uint64(0)
	if p.ok {
		ok = 1
	}
	return [4]uint64{math.Float64bits(p.ll), math.Float64bits(p.alpha), math.Float64bits(p.logBeta), ok}
}

// TestProfileLanesMatchSerial evaluates, on every golden sample and
// FuzzFitMLEShape seed, each μ the serial fit evaluated (the 60 grid
// points, the golden-section points and the final one) in lockstep
// chunks of 1, maxLanes and 60 lanes, and requires the bits of
// (ll, α̂, log β̂, ok) of the serial evaluation; then the whole fit must
// match the serial fit's bits and error. Both run on the kernels where
// they run, and both on math.Exp and math.Log. Unlike TestFitMLEGolden
// it builds at every GOAMD64 level, so it also holds the lanes to the
// serial code where the compiler fuses multiply-adds.
func TestProfileLanesMatchSerial(t *testing.T) {
	type sample struct {
		xs       []float64
		alphaMin float64
	}
	var samples []sample
	for _, c := range goldenSamples() {
		samples = append(samples, sample{c.xs, c.alphaMin})
	}
	for _, s := range fitFuzzSeeds() {
		samples = append(samples, sample{decodeFitSample(s.data, s.mode&8 != 0),
			fuzzAlphaMins[int(s.mode&7)%len(fuzzAlphaMins)]})
	}
	evals := 0
	for _, goSweep := range []bool{false, true} {
		ref := serialFitter{goSweep: goSweep}
		ft := Fitter{goSweep: goSweep}
		for i, s := range samples {
			ref.mus, ref.profs = ref.mus[:0], ref.profs[:0]
			want, wantErr := ref.fit(s.xs, s.alphaMin)
			got, err := ft.FitMLEShape(s.xs, s.alphaMin)
			if !errors.Is(err, wantErr) || goldenBits(got) != goldenBits(want) {
				t.Fatalf("goSweep %v, sample %d %v (alphaMin %v): fit %+v, %v; serial %+v, %v",
					goSweep, i, s.xs, s.alphaMin, got, err, want, wantErr)
			}
			mus, wantP := ref.mus, ref.profs
			n := len(s.xs)
			for _, k := range []int{1, maxLanes, 60} {
				ls := makeLanes(make([]float64, laneFloats(n, k)), make([]lane, k), s.xs, s.alphaMin)
				gotP := make([]profile, len(mus))
				ft.profiles(&ls, mus, gotP)
				for j := range gotP {
					if profileBits(gotP[j]) != profileBits(wantP[j]) {
						t.Fatalf("goSweep %v, sample %d %v (alphaMin %v), %d lanes, μ = %v: lanes %+v, serial %+v",
							goSweep, i, s.xs, s.alphaMin, k, mus[j], gotP[j], wantP[j])
					}
				}
			}
			evals += len(mus)
		}
	}
	t.Logf("%d samples, %d evaluations compared on 1, %d and 60 lanes (Exp kernel %v, Log kernel %v)",
		len(samples), evals, maxLanes, haveExpKernel, haveLogKernel)
}

// TestLaneScratch checks the lane scratch bound, at most
// max(64 KiB, one lane's scratch), on fits of 1,000 and 100,000 values,
// and that the estimator's m = 10 gets maxLanes lanes on the stack.
func TestLaneScratch(t *testing.T) {
	if k := laneCount(10, stackFloats); k != maxLanes || laneFloats(10, k) > stackFloats {
		t.Errorf("m = 10: %d lanes in %d float64s of stack, want %d lanes", k, laneFloats(10, k), maxLanes)
	}
	rng := stats.NewRNG(7)
	for _, n := range []int{1000, 100000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		var ft Fitter
		ft.FitMLEShape(xs, DefaultAlphaMin)
		bound := max(64<<10, 8*laneFloats(n, 1))
		if got := 8 * cap(ft.heap); got > bound {
			t.Errorf("n = %d: %d bytes of lane scratch, want at most %d", n, got, bound)
		}
	}
}
