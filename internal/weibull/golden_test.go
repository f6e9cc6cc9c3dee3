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
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fit_golden.txt from the current FitMLE")

const goldenPath = "testdata/fit_golden.txt"

// expFMAPath reports whether math.Exp takes its FMA path here, the path
// the golden file was written on: Go takes it on every CPU with FMA and
// AVX unless GODEBUG turns them off. The probe argument is the first of
// expProbeMatches', where the FMA path and the plain path return
// different float64s.
func expFMAPath() bool {
	return math.Float64bits(math.Exp(-2.4234)) == 0x3fb6afc97b5ff31d
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

// TestFitMLEGolden pins FitMLEShape bit for bit on fixed samples,
// through a fresh Fitter, one reused across every sample, and one on the
// Go sweep. A change to the profile likelihood, its root solver or the
// μ search that moves any fit by one ulp fails here; refresh the file
// with -update only on purpose. The file holds amd64 bits without FMA
// fusion by the compiler (GOAMD64 v1–v2), the only targets this test
// builds on, and of math.Exp's FMA path, which Go takes on every CPU
// with FMA and AVX; elsewhere the test skips. The samples marked
// fallback must each have a sweep the Exp kernel declines, where the
// kernel runs.
func TestFitMLEGolden(t *testing.T) {
	if !expFMAPath() {
		t.Skip("math.Exp does not take its FMA path here (no FMA or AVX, or GODEBUG turned them off): the golden bits do not apply")
	}
	samples := goldenSamples()
	var reused Fitter
	goSweep := Fitter{goSweep: true}
	got := make([]string, len(samples))
	for i, c := range samples {
		got[i] = goldenLine(FitMLEShape(c.xs, c.alphaMin))
		declined := reused.declined
		if again := goldenLine(reused.FitMLEShape(c.xs, c.alphaMin)); again != got[i] {
			t.Errorf("sample %d: reused Fitter %s, fresh %s", i, again, got[i])
		}
		if ref := goldenLine(goSweep.FitMLEShape(c.xs, c.alphaMin)); ref != got[i] {
			t.Errorf("sample %d: Go sweep %s, fresh %s", i, ref, got[i])
		}
		if haveExpKernel && c.fallback && reused.declined == declined {
			t.Errorf("sample %d: no sweep fell back to math.Exp", i)
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
			t.Errorf("sample %d (n=%d): got %s, want %s", i, len(samples[i].xs), got[i], want[i])
		}
		if strings.Count(want[i], " ") == 3 {
			fits++
		}
	}
	t.Logf("%d samples, %d fits", len(got), fits)
}
