package stats

import (
	"math"
	"sync"
	"testing"
)

// freshQuantileMemo empties the quantile table for one test and puts the
// old one back when the test ends.
func freshQuantileMemo(t *testing.T) {
	quantileMemo.Lock()
	saved := quantileMemo.m
	quantileMemo.m = make(map[quantileKey]float64)
	quantileMemo.Unlock()
	t.Cleanup(func() {
		quantileMemo.Lock()
		quantileMemo.m = saved
		quantileMemo.Unlock()
	})
}

func quantileMemoLen() int {
	quantileMemo.Lock()
	defer quantileMemo.Unlock()
	return len(quantileMemo.m)
}

// memoCase is one (k, confidence) fold of the estimator's interval with
// its cold solve: the Student-t factor with k − 1 degrees of freedom.
type memoCase struct {
	k    int
	conf float64
	tq   float64
}

func coldMemoCase(k int, conf float64) memoCase {
	return memoCase{k: k, conf: conf, tq: StudentT{Nu: float64(k - 1)}.Quantile((1 + conf) / 2)}
}

func (c memoCase) check(t *testing.T) {
	if got := TwoSidedT(c.conf, float64(c.k-1)); math.Float64bits(got) != math.Float64bits(c.tq) {
		t.Errorf("TwoSidedT(%v, %d) = %v, cold solve %v", c.conf, c.k-1, got, c.tq)
	}
}

// TestQuantileMemo checks that memoised TwoSidedT returns the cold
// solve's bits for k = 2–200 at four confidences, on the call that
// stores and on the calls that hit, and once the table is full; that
// the table never passes its capacity; that a NaN confidence adds
// one key, not one per call; and that concurrent folds agree (run it
// under -race).
func TestQuantileMemo(t *testing.T) {
	freshQuantileMemo(t)
	confs := []float64{0.8, 0.9, 0.95, 0.99}
	var cases []memoCase
	for k := 2; k <= 200; k++ {
		for _, conf := range confs {
			cases = append(cases, coldMemoCase(k, conf))
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, c := range cases {
			c.check(t)
		}
	}
	if got, want := quantileMemoLen(), len(cases); got != want {
		t.Errorf("table holds %d quantiles, want %d", got, want)
	}

	n := quantileMemoLen()
	for i := 0; i < 3; i++ {
		TwoSidedT(math.NaN(), 5)
	}
	if got := quantileMemoLen(); got > n+1 {
		t.Errorf("NaN confidence grew the table from %d to %d quantiles", n, got)
	}

	// Fill the table with keys no call makes, then fold past it.
	quantileMemo.Lock()
	for i := uint64(0); len(quantileMemo.m) < quantileMemoCap; i++ {
		quantileMemo.m[quantileKey{p: i}] = 0 // df 0: TwoSidedT refuses it
	}
	quantileMemo.Unlock()
	for pass := 0; pass < 2; pass++ {
		for _, c := range cases {
			c.check(t)
		}
		for k := 201; k <= 210; k++ {
			coldMemoCase(k, 0.95).check(t)
		}
	}
	if got := quantileMemoLen(); got != quantileMemoCap {
		t.Errorf("full table holds %d quantiles, capacity %d", got, quantileMemoCap)
	}

	// Concurrent folds on an empty table store and hit the same keys.
	freshQuantileMemo(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range cases {
				cases[(i+w*len(cases)/4)%len(cases)].check(t)
			}
		}(w)
	}
	wg.Wait()
}
