package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed: tail must sort
	}
	return s
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true},    // 10 beyond
		{100, 0.95, 0, false},    // 5 beyond
		{1000, 0.99, 990, true},  // 10 beyond
		{999, 0.99, 0, false},    // rank 990, 9 beyond
		{200, 0.95, 190, true},   // the p95 every timed run needs
		{199, 0.95, 0, false},    // rank 190, 9 beyond
		{5, 0.5, 0, false},       // a smoke run's median is no tail
		{0, 0.95, 0, false},      // nothing measured
		{20, 0.5, 10, true},      // rank 10, 10 beyond
		{2000, 0.99, 1980, true}, // rank 1980
	} {
		got, ok := tail(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("tail(%d samples, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestAbsentPercentileIsNotANumber(t *testing.T) {
	rep := &runReport{Workload: "w", Trace: 0, Correct: true}
	rep.addTail("latency_ms_p95", "ms", seq(50), 0.95)
	rep.add("setup_s", "s", 1.5)
	var out bytes.Buffer
	rep.print(&out)
	if !strings.Contains(out.String(), "w latency_ms_p95 absent ms n=50\n") {
		t.Errorf("absent percentile not printed as such:\n%s", out.String())
	}
	b, err := json.Marshal(rep.contract())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "latency_ms_p95") || !strings.Contains(string(b), `"setup_s":{"value":1.5,"unit":"s"}`) {
		t.Errorf("contract line %s: want setup_s and no absent percentile", b)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) in Python 3.
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 4, 7}, 1.75, 9.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3, ok := quartiles(c.in)
		if !ok || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.in, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should be undefined")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
}
