package main

import "testing"

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a: [30,40] counts once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past its parent: only [90,100] covers it
		{ID: 4, Parent: 1, Name: "a1", Start: 15, End: 20}, // grandchild: covers a, not root
		{ID: 5, Parent: -1, Name: "root", Start: 200, End: 210},
	}
	want := []int64{
		100 - 50 - 10, // root: children cover [10,60] and [90,100]
		30 - 5,        // a
		30,            // b
		30,            // c
		5,             // a1
		10,            // second root, no children
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	agg := aggregate(spans)
	if r := agg["root"]; r.count != 2 || r.total != 110 || r.self != 50 {
		t.Errorf("root aggregate %+v, want 2 spans, total 110, self 50", r)
	}
}

func TestTracerNests(t *testing.T) {
	tr := newTracer()
	tr.trace = 7
	root := tr.begin("estimate")
	a := tr.begin("a")
	tr.end(a)
	b := tr.begin("b")
	c := tr.begin("c")
	tr.end(c)
	tr.end(b)
	tr.end(root)
	parents := map[string]int{"estimate": -1, "a": root, "b": root, "c": b}
	for _, s := range tr.spans {
		if s.Parent != parents[s.Name] || s.Trace != 7 || s.End < s.Start {
			t.Errorf("span %+v: want parent %d, trace 7, end ≥ start", s, parents[s.Name])
		}
	}
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open", len(tr.open))
	}
}
