package main

import (
	"testing"
	"time"
)

// TestSlowdownAroundWork checks which reference computations bring a
// stretch of work to reference speed: the ones either side of it and any
// made while it ran.
func TestSlowdownAroundWork(t *testing.T) {
	epoch := time.Unix(1000, 0)
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	nom := float64(refNominal)
	s := &speedRef{
		ns: []float64{1 * nom, 2 * nom, 3 * nom, 4 * nom},
		at: []time.Time{at(0), at(50), at(100), at(150)},
	}
	for _, c := range []struct {
		from, to int
		want     float64
	}{
		{10, 40, 1.5},   // between references 0 and 1
		{60, 120, 3},    // reference 1 before, 2 during, 3 after
		{160, 170, 4},   // after the last reference: that one alone
		{-20, -10, 1},   // before the first: that one alone
		{-10, 200, 2.5}, // across all of them
	} {
		if got := s.over(at(c.from), at(c.to)); got != c.want {
			t.Errorf("over(%d ms, %d ms) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := s.between(1); got != 2.5 {
		t.Errorf("between(1) = %v, want 2.5: references 1 and 2", got)
	}
	if got := s.between(3); got != 4 {
		t.Errorf("between(3) = %v, want 4: the last reference has none after it", got)
	}
}
