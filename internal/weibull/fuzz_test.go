package weibull

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/stats"
)

// fuzzAlphaMins are the shape bounds FuzzFitMLEShape picks from: the
// paper's constraint, none (alphaMin ≤ 0 selects 1e-6), and a few
// others.
var fuzzAlphaMins = [...]float64{DefaultAlphaMin, 0, 1, 2.5, 5}

// decodeFitSample turns fuzz bytes into a sample. A wide sample reads
// each 8 bytes as float64 bits, so NaN, ±Inf, subnormals and any spread
// are reachable. A narrow one reads int16 steps of a power-of-two scale
// taken from the first byte, which gives ties and realistic spreads.
func decodeFitSample(data []byte, wide bool) []float64 {
	var xs []float64
	if wide {
		for ; len(data) >= 8; data = data[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		return xs
	}
	if len(data) == 0 {
		return nil
	}
	scale := math.Ldexp(1, int(int8(data[0])))
	for data = data[1:]; len(data) >= 2; data = data[2:] {
		xs = append(xs, float64(int16(binary.LittleEndian.Uint16(data)))*scale)
	}
	return xs
}

func wideBytes(xs ...float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

func narrowBytes(scaleExp int8, steps ...int16) []byte {
	b := []byte{byte(scaleExp)}
	for _, s := range steps {
		b = binary.LittleEndian.AppendUint16(b, uint16(s))
	}
	return b
}

// kernelSeedSamples draws the samples of FuzzFitMLEShape's kernel
// differential: perFamily samples of m = 3–32 values from each of five
// families.
func kernelSeedSamples(perFamily int) [][]float64 {
	rng := stats.NewRNG(1998)
	var out [][]float64
	for i := 0; i < perFamily; i++ {
		alpha := 2.2 + 8*rng.Float64()
		d := Dist{Alpha: alpha, Beta: 1 / math.Pow(0.05, alpha), Mu: 4.2}
		for family := 0; family < 5; family++ {
			xs := make([]float64, 3+rng.Intn(30))
			for j := range xs {
				switch family {
				case 0: // reverse-Weibull maxima
					xs[j] = d.Rand(rng)
				case 1: // near-uniform
					xs[j] = rng.Float64()
				case 2: // huge spread
					xs[j] = math.Exp(40 * rng.NormFloat64())
				case 3: // ties
					xs[j] = math.Round(4*rng.NormFloat64()) / 4
				case 4: // narrow normal
					xs[j] = 5.3 + 1e-9*rng.NormFloat64()
				}
			}
			out = append(out, xs)
		}
	}
	return out
}

// FuzzFitMLEShape checks that FitMLEShape never panics, fails only with
// ErrDegenerate or ErrNoInteriorMax, and otherwise returns a proper fit:
// α ≥ alphaMin, β > 0, a finite μ above the sample maximum and a finite
// log-likelihood. A Fitter warmed on another sample must give the same
// bits as a fresh one, and a Fitter on math.Exp and math.Log the same
// bits and error as one on the AVX-512 Exp and Log kernels. Beyond the
// edge cases, the
// seed corpus holds 5,000 samples of five families for that
// differential. mode selects the shape bound (low bits) and the
// decoding (bit 3: wide).
func FuzzFitMLEShape(f *testing.F) {
	if !haveExpKernel || !haveLogKernel {
		f.Logf("AVX-512 Exp kernel %v, Log kernel %v on this host: the kernel differential compares the Go path with itself where one is absent", haveExpKernel, haveLogKernel)
	}
	for _, s := range fitFuzzSeeds() {
		f.Add(s.data, s.mode)
	}
	var warm [40]float64
	for i := range warm {
		warm[i] = 1 - math.Pow(float64(i+1)/41, 0.3)
	}
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		xs := decodeFitSample(data, mode&8 != 0)
		alphaMin := fuzzAlphaMins[int(mode&7)%len(fuzzAlphaMins)]
		got, err := FitMLEShape(xs, alphaMin)
		switch {
		case errors.Is(err, ErrDegenerate), errors.Is(err, ErrNoInteriorMax):
		case err != nil:
			t.Fatalf("FitMLEShape(%v, %v): unexpected error %v", xs, alphaMin, err)
		default:
			xmax := math.Inf(-1)
			for _, x := range xs {
				xmax = math.Max(xmax, x) // NaN propagates and fails μ > xmax
			}
			if !(got.Alpha >= alphaMin) || !(got.Beta > 0) || math.IsInf(got.Mu, 0) ||
				!(got.Mu > xmax) || math.IsNaN(got.LogLik) || math.IsInf(got.LogLik, 0) {
				t.Fatalf("FitMLEShape(%v, %v) = %+v: not a proper fit", xs, alphaMin, got)
			}
		}
		ref, refErr := (&Fitter{goSweep: true}).FitMLEShape(xs, alphaMin)
		if refErr != err || goldenBits(ref) != goldenBits(got) {
			t.Fatalf("FitMLEShape(%v, %v): kernel %+v, %v; Go sweep %+v, %v", xs, alphaMin, got, err, ref, refErr)
		}
		var ft Fitter
		ft.FitMLEShape(warm[:], alphaMin)
		for pass := 0; pass < 2; pass++ {
			again, err2 := ft.FitMLEShape(xs, alphaMin)
			if err2 != err || goldenBits(again) != goldenBits(got) {
				t.Fatalf("reused Fitter pass %d: %+v, %v; fresh %+v, %v", pass, again, err2, got, err)
			}
		}
	})
}

// goldenBits is the bit pattern of a fit, so that NaN compares equal to
// itself.
func goldenBits(r FitResult) [4]uint64 {
	return [4]uint64{math.Float64bits(r.Alpha), math.Float64bits(r.Beta),
		math.Float64bits(r.Mu), math.Float64bits(r.LogLik)}
}

// fitSeed is one FuzzFitMLEShape input.
type fitSeed struct {
	data []byte
	mode uint8
}

// fitFuzzSeeds returns FuzzFitMLEShape's seed corpus, in the order the
// target adds it: edge cases at every shape bound, narrow samples, then
// the 5,000 samples of the kernel differential.
func fitFuzzSeeds() []fitSeed {
	var seeds []fitSeed
	nan, inf := math.NaN(), math.Inf(1)
	wide := [][]float64{
		// estimator-shaped maxima, ties, a constant sample
		{4.17, 4.12, 4.19, 4.05, 4.16, 4.11, 4.18, 4.02, 4.14, 4.15},
		{1, 1, 2, 2, 3, 3},
		{7, 7, 7, 7},
		// NaN and ±Inf
		{1, 2, nan, 3},
		{nan, 1, 2, 3},
		{1, 2, 3, inf},
		{-inf, 1, 2, 3},
		// subnormals and the smallest normals
		{5e-324, 1e-323, 1.5e-323, 2e-323, 2.5e-323},
		{2.2250738585072014e-308, 1e-300, 3e-300, 5e-300},
		// huge spreads, values a few ulps apart, mixed signs
		{-1e300, 0, 1e300, 5e299},
		{1e-300, 1, 1e300},
		{1e15, 1e15 + 2, 1e15 + 4, 1e15 + 4, 1e15 + 8},
		{-3, -2, -1, -1, 0},
		{0.5, 0.7, 0.9, 0.95, 0.99, 0.999, 0.9999},
	}
	for _, xs := range wide {
		for sel := range fuzzAlphaMins {
			seeds = append(seeds, fitSeed{wideBytes(xs...), uint8(8 | sel)})
		}
	}
	seeds = append(seeds,
		fitSeed{narrowBytes(-10, 400, 410, 410, 405, 399, 412, 390, 411, 408, 409), 0},
		fitSeed{narrowBytes(0, 3, 3, 3, 2), 1},
		fitSeed{narrowBytes(-60, 1, 2, 3, 4, 5, 32767, -32768), 2},
		fitSeed{narrowBytes(100, 1, 2, 3, 5, 8, 13), 3},
		fitSeed{narrowBytes(-128, 1, 1, 2), 4})
	for i, xs := range kernelSeedSamples(1000) {
		seeds = append(seeds, fitSeed{wideBytes(xs...), uint8(8 | i%len(fuzzAlphaMins))})
	}
	return seeds
}
