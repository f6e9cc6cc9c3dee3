package weibull

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
)

// kernelOrSkip skips the kernel half of a test, with a log line, on
// hosts where the AVX-512 Exp kernel does not run.
func kernelOrSkip(t testing.TB) {
	t.Helper()
	if !haveExpKernel {
		t.Skip("no AVX-512 Exp kernel on this host (needs AVX-512F/BW, AVX2, AVX, FMA and math.Exp's FMA path): Go sweep only")
	}
}

// runKernel runs expAVX512 on xs with a sentinel past the end, which it
// must leave alone, and on success compares every lane with math.Exp.
func runKernel(t *testing.T, xs []float64, a float64) bool {
	t.Helper()
	const sentinel = -1234.5
	dst := make([]float64, len(xs)+1)
	dst[len(xs)] = sentinel
	ok := expAVX512(&dst[0], &xs[0], len(xs), a)
	if dst[len(xs)] != sentinel {
		t.Fatalf("n=%d: kernel wrote past the end", len(xs))
	}
	if !ok {
		return false
	}
	for i, x := range xs {
		if want := math.Exp(a * x); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("n=%d lane %d: exp(%v·%v) = %v (%#x), math.Exp %v (%#x)", len(xs), i, a, x,
				dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
		}
	}
	return true
}

// TestExpKernel compares the AVX-512 kernel with math.Exp on every lane:
// random sweeps over the fit's range and over the whole normal range,
// for n = 1–40; arguments on both sides of k + 1023 = 1 and of
// k + 1023 = 2046; and ±0. NaN, ±Inf, overflow and subnormal results in
// any lane must make the kernel decline the sweep.
func TestExpKernel(t *testing.T) {
	kernelOrSkip(t)
	rng := stats.NewRNG(16)
	logUniform := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 710, 1e300, -746, -709, -1e300}
	for n := 1; n <= 40; n++ {
		xs := make([]float64, n)
		for rep := 0; rep < 40; rep++ {
			// A fit sweeps logs of yᵢ/max y, which lie in about [−14, 0],
			// at shapes from 1e-6 up.
			a := logUniform(1e-6, 50)
			for i := range xs {
				xs[i] = math.Log(logUniform(1e-6, 1))
			}
			if !runKernel(t, xs, a) {
				t.Fatalf("n=%d: sweep in range declined: a=%v logs=%v", n, a, xs)
			}
			for i := range xs {
				xs[i] = -708 + rng.Float64()*(709+708)
			}
			if !runKernel(t, xs, 1) {
				t.Fatalf("n=%d: sweep in range declined: %v", n, xs)
			}
			xs[rng.Intn(n)] = bad[rep%len(bad)]
			if runKernel(t, xs, 1) {
				t.Fatalf("n=%d: sweep with %v accepted", n, bad[rep%len(bad)])
			}
		}
	}

	// archExp returns through the copied path exactly when
	// e = round-to-even(x·LOG2E) + 1023 lies in [1, 2046]. Step over the
	// rounding boundaries around e = 0, 1, 2046 and 2047 one float at a
	// time.
	seen := map[float64]bool{}
	for _, b := range []float64{-1023.5, -1022.5, -1021.5, 1022.5, 1023.5, 1024.5} {
		x := b / math.Log2E
		for i := 0; i < 6; i++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		for i := 0; i < 12; i++ {
			e := math.RoundToEven(x*math.Log2E) + 1023
			seen[e] = true
			in := e >= 1 && e <= 2046
			if ok := runKernel(t, []float64{x}, 1); ok != in {
				t.Fatalf("exp(%v) with biased exponent %v: kernel accepted %v, want %v", x, e, ok, in)
			}
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	for _, e := range []float64{0, 1, 2046, 2047} {
		if !seen[e] {
			t.Errorf("no edge argument with biased exponent %v", e)
		}
	}
	if !runKernel(t, []float64{math.Copysign(0, -1), 0, -1e-300, 1e-300}, 1) {
		t.Fatal("±0 declined")
	}
	if !runKernel(t, []float64{-0.5, -1, -2}, math.Copysign(0, -1)) {
		t.Fatal("a = −0 declined")
	}
}

// TestFitterWarmAllocs checks the Fitter's promise: once its buffers are
// warm, a fit allocates nothing, on the kernels, on math.Exp and
// math.Log, and on a sample whose sweeps and log passes the kernels
// decline.
func TestFitterWarmAllocs(t *testing.T) {
	rng := stats.NewRNG(3)
	d := Dist{Alpha: 3, Beta: 1 / math.Pow(0.05, 3), Mu: 4.2}
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = d.Rand(rng)
	}
	withNaN := []float64{1, 2, math.NaN(), 3, 2.5}
	for _, goSweep := range []bool{false, true} {
		for _, sample := range [][]float64{xs, withNaN} {
			ft := Fitter{goSweep: goSweep}
			ft.FitMLEShape(sample, DefaultAlphaMin)
			allocs := testing.AllocsPerRun(20, func() { ft.FitMLEShape(sample, DefaultAlphaMin) })
			if allocs != 0 {
				t.Errorf("goSweep %v, sample %v: %v allocations per warm fit", goSweep, sample, allocs)
			}
		}
	}
}

// BenchmarkFitMLE fits estimator-shaped maxima (m = 10) on a warm
// Fitter, through the kernels where they run and through math.Exp and
// math.Log.
func BenchmarkFitMLE(b *testing.B) {
	rng := stats.NewRNG(11)
	d := Dist{Alpha: 3, Beta: 1 / math.Pow(0.05, 3), Mu: 4.2}
	samples := make([][]float64, 64)
	for i := range samples {
		samples[i] = make([]float64, 10)
		for j := range samples[i] {
			samples[i][j] = d.Rand(rng)
		}
	}
	for _, sweep := range []struct {
		name    string
		goSweep bool
	}{{"kernel", false}, {"go", true}} {
		b.Run(sweep.name, func(b *testing.B) {
			if !sweep.goSweep {
				kernelOrSkip(b)
			}
			ft := Fitter{goSweep: sweep.goSweep}
			for i := 0; i < b.N; i++ {
				ft.FitMLEShape(samples[i%len(samples)], DefaultAlphaMin)
			}
		})
	}
}

// BenchmarkProfileLanes evaluates the profile likelihood of
// estimator-shaped maxima (m = 10) at their 60 grid values of μ in
// lockstep chunks of 1 to 60 lanes, through the kernels where they run.
// ns/op is per evaluation.
func BenchmarkProfileLanes(b *testing.B) {
	rng := stats.NewRNG(12)
	d := Dist{Alpha: 3, Beta: 1 / math.Pow(0.05, 3), Mu: 4.2}
	const samples, gridN = 64, 60
	xs := make([][]float64, samples)
	mus := make([][]float64, samples)
	for i := range xs {
		xs[i] = make([]float64, 10)
		for j := range xs[i] {
			xs[i][j] = d.Rand(rng)
		}
		xmax, xmin := slices.Max(xs[i]), slices.Min(xs[i])
		loOff, hiOff := (xmax-xmin)*1e-6, (xmax-xmin)*1e4
		ratio := math.Pow(hiOff/loOff, 1/float64(gridN-1))
		off := loOff
		for j := 0; j < gridN; j++ {
			mus[i] = append(mus[i], xmax+off)
			off *= ratio
		}
	}
	for _, k := range []int{1, 3, 6, 12, maxLanes, 60} {
		b.Run(fmt.Sprintf("lanes=%d", k), func(b *testing.B) {
			var ft Fitter
			buf, st := make([]float64, laneFloats(10, k)), make([]lane, k)
			out := make([]profile, gridN)
			b.ResetTimer()
			for i := 0; i < b.N; i += gridN {
				s := (i / gridN) % samples
				ls := makeLanes(buf, st, xs[s], DefaultAlphaMin)
				ft.profiles(&ls, mus[s], out)
			}
		})
	}
}
