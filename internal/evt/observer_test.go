package evt

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// TestObserverSnapshots checks the observation seam: one snapshot per
// hyper-sample, monotone counters, and a final snapshot that matches
// the returned Result.
func TestObserverSnapshots(t *testing.T) {
	pop := betaLikePopulation(5000, 1)
	var snaps []Result
	est, err := New(pop, Config{
		Epsilon:    0.02,
		OnProgress: func(p Result) { snaps = append(snaps, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	res := est.Run(stats.NewRNG(2))

	if len(snaps) != res.HyperSamples {
		t.Fatalf("got %d snapshots for %d hyper-samples", len(snaps), res.HyperSamples)
	}
	if snaps[0].HyperSamples != 1 || !math.IsInf(snaps[0].RelErr, 1) {
		t.Errorf("first snapshot = %+v, want k=1 with unbounded RelErr", snaps[0])
	}
	prevUnits := 0
	for i, s := range snaps {
		if s.HyperSamples != i+1 {
			t.Errorf("snapshot %d has k=%d", i, s.HyperSamples)
		}
		if s.Units <= prevUnits {
			t.Errorf("snapshot %d units %d not increasing past %d", i, s.Units, prevUnits)
		}
		prevUnits = s.Units
	}
	last := snaps[len(snaps)-1]
	if last.Estimate != res.Estimate || last.Units != res.Units ||
		last.CILow != res.CILow || last.CIHigh != res.CIHigh ||
		last.Converged != res.Converged {
		t.Errorf("final snapshot %+v does not match result (est=%v units=%d ci=[%v,%v] conv=%v)",
			last, res.Estimate, res.Units, res.CILow, res.CIHigh, res.Converged)
	}
	if !res.Converged {
		t.Error("run did not converge on the test population")
	}
}

// TestObserverDoesNotPerturbRun verifies the seam consumes no
// randomness: with the same seed, an observed run and an unobserved run
// produce bit-identical results.
func TestObserverDoesNotPerturbRun(t *testing.T) {
	pop := betaLikePopulation(5000, 3)

	plain, err := New(pop, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := plain.Run(stats.NewRNG(7))

	calls := 0
	observed, err := New(pop, Config{
		OnProgress: func(Result) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	got := observed.Run(stats.NewRNG(7))

	if calls == 0 {
		t.Fatal("observer never invoked")
	}
	if got.Estimate != want.Estimate || got.Units != want.Units ||
		got.HyperSamples != want.HyperSamples ||
		got.CILow != want.CILow || got.CIHigh != want.CIHigh {
		t.Errorf("observed run diverged: got (est=%v units=%d k=%d), want (est=%v units=%d k=%d)",
			got.Estimate, got.Units, got.HyperSamples, want.Estimate, want.Units, want.HyperSamples)
	}
}
