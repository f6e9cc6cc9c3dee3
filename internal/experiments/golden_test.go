//go:build amd64 && !amd64.v3

package experiments

import (
	"bytes"
	"flag"
	"math"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/experiments_golden.json from the current RunAll")

const goldenPath = "testdata/experiments_golden.json"

// goldenCfg is the reduced paper run TestExperimentsGolden pins: five
// circuits, 3,000-pair populations and four runs per circuit.
func goldenCfg() Config {
	return Config{
		Circuits: []string{"C432", "C880", "C1355", "C1908", "C3540"},
		PopSize:  3000,
		Runs:     4,
		Seed:     1,
	}
}

// expFMAPath reports whether math.Exp takes its FMA path here, the path
// the golden file was written on: Go takes it on every CPU with FMA and
// AVX unless GODEBUG turns them off. The probe argument is one where the
// FMA path and the plain path return different float64s.
func expFMAPath() bool {
	return math.Float64bits(math.Exp(-2.4234)) == 0x3fb6afc97b5ff31d
}

// TestExperimentsGolden pins the paper pipeline bit for bit: population
// builds, the estimator, the fits, the SRS and search baselines, and
// every table and figure of RunAll, through the bytes of WriteJSON,
// whose floats round-trip exactly. A change that moves any estimate by
// one ulp fails here; refresh the file with -update only on purpose. The
// file holds amd64 bits without FMA fusion by the compiler (GOAMD64
// v1–v2), the only targets this test builds on, and of math.Exp's FMA
// path.
func TestExperimentsGolden(t *testing.T) {
	if !expFMAPath() {
		t.Skip("math.Exp does not take its FMA path here (no FMA or AVX, or GODEBUG turned them off): the golden bits do not apply")
	}
	all, err := NewRunner(goldenCfg()).RunAll("C3540")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := all.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	diffs := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g == w {
			continue
		}
		if diffs++; diffs <= 10 {
			t.Errorf("line %d: got %q, want %q", i+1, g, w)
		}
	}
	t.Errorf("%d of %d golden lines differ", diffs, len(wl))
}
