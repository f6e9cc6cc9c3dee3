//go:build amd64 && !amd64.v3

package weibull

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fit_golden.txt from the current FitMLE")

const goldenPath = "testdata/fit_golden.txt"

// goldenSamples builds the fixed samples TestFitMLEGolden pins: exact
// reverse-Weibull maxima over a range of shapes, sizes and scales,
// uniform and Gumbel-like data, rounded samples with ties, tiny and
// constant samples, and large offsets.
func goldenSamples() [][]float64 {
	rng := stats.NewRNG(20261017)
	var out [][]float64
	draw := func(n int, f func() float64) {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f()
		}
		out = append(out, xs)
	}
	for _, alpha := range []float64{2.2, 3, 5, 10} {
		for _, n := range []int{5, 10, 30, 100} {
			d := Dist{Alpha: alpha, Beta: 1 / math.Pow(0.05, alpha), Mu: 4.2}
			draw(n, func() float64 { return d.Rand(rng) })
		}
	}
	for _, n := range []int{3, 4, 10, 30} {
		draw(n, rng.Float64)
	}
	for _, n := range []int{10, 30} {
		draw(n, func() float64 { // Gumbel-like: maxima of 20 normals
			m := math.Inf(-1)
			for j := 0; j < 20; j++ {
				m = math.Max(m, rng.NormFloat64())
			}
			return m
		})
	}
	for _, step := range []float64{0.01, 0.05, 0.2} { // ties from rounding
		d := Dist{Alpha: 3, Beta: 1, Mu: 1}
		draw(30, func() float64 { return math.Round(d.Rand(rng)/step) * step })
	}
	for _, scale := range []float64{1e-9, 1e-3, 1e3, 1e9} {
		d := Dist{Alpha: 4, Beta: 1 / math.Pow(scale, 4), Mu: 3 * scale}
		draw(30, func() float64 { return d.Rand(rng) })
	}
	for _, off := range []float64{1e6, -1e6} {
		d := Dist{Alpha: 3, Beta: 1, Mu: off}
		draw(30, func() float64 { return d.Rand(rng) })
	}
	out = append(out,
		[]float64{1, 1, 1, 1},
		[]float64{1, 2},
		[]float64{0, 0, 0, 1},
		[]float64{0, 1, 1, 1},
		[]float64{1, 2, 3},
		[]float64{-3, -2, -1, -1, 0},
		[]float64{5e-324, 1e-323, 1.5e-323, 2e-323},
	)
	for _, n := range []int{10, 30, 60} { // mW-scale cycle-power maxima
		draw(n, func() float64 { return 5.3 + 0.1*rng.NormFloat64() - 0.05*rng.ExpFloat64() })
	}
	for _, k := range []float64{0.5, 1, 2, 3, 4, 6, 8} { // maxima of 30 bounded draws
		draw(10, func() float64 {
			m := 0.0
			for j := 0; j < 30; j++ {
				m = math.Max(m, math.Pow(rng.Float64(), 1/k))
			}
			return m
		})
	}
	for _, n := range []int{10, 30} { // heavy right tail
		draw(n, func() float64 { return rng.ExpFloat64() })
	}
	return out
}

// goldenLine renders one fit: the error, or the bits of α, β, μ and
// LogLik.
func goldenLine(r FitResult, err error) string {
	switch {
	case errors.Is(err, ErrDegenerate):
		return "degenerate"
	case errors.Is(err, ErrNoInteriorMax):
		return "nointeriormax"
	case err != nil:
		return "error " + err.Error()
	}
	return fmt.Sprintf("%016x %016x %016x %016x", math.Float64bits(r.Alpha),
		math.Float64bits(r.Beta), math.Float64bits(r.Mu), math.Float64bits(r.LogLik))
}

// TestFitMLEGolden pins FitMLE bit for bit on fixed samples, through a
// fresh Fitter and one reused across every sample. A change to the
// profile likelihood, its root solver or the μ search that moves any
// fit by one ulp fails here; refresh the file with -update only on
// purpose. The file holds amd64 bits without FMA fusion (GOAMD64 v1–v2),
// the only targets this test builds on.
func TestFitMLEGolden(t *testing.T) {
	samples := goldenSamples()
	var reused Fitter
	got := make([]string, len(samples))
	for i, xs := range samples {
		got[i] = goldenLine(FitMLE(xs))
		if again := goldenLine(reused.FitMLEShape(xs, DefaultAlphaMin)); again != got[i] {
			t.Errorf("sample %d: reused Fitter %s, fresh %s", i, again, got[i])
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d golden fits, %d samples", len(want), len(got))
	}
	fits := 0
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("sample %d (n=%d): got %s, want %s", i, len(samples[i]), got[i], want[i])
		}
		if strings.Count(want[i], " ") == 3 {
			fits++
		}
	}
	t.Logf("%d samples, %d fits", len(got), fits)
}
