package sim

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
)

// TestCompileFingerprintDistinctAcrossModels: the same circuit under
// different delay models must fingerprint — and therefore cache —
// distinctly, while recompiling the same (circuit, model) reproduces the
// same fingerprint. This is the collision-safety half of the kernel
// cache's keying contract.
func TestCompileFingerprintDistinctAcrossModels(t *testing.T) {
	c := bench.MustGenerate("C432")
	models := []delay.Model{delay.Zero{}, delay.Unit{}, delay.FanoutLoaded{}, delay.StandardTable()}
	seen := map[uint64]string{}
	for _, m := range models {
		p1 := CompileModel(c, m, CompileOptions{})
		p2 := CompileModel(c, m, CompileOptions{})
		if p1.Fingerprint() != p2.Fingerprint() {
			t.Fatalf("%s: recompile changed fingerprint %x → %x", m.Name(), p1.Fingerprint(), p2.Fingerprint())
		}
		if prev, dup := seen[p1.Fingerprint()]; dup {
			t.Fatalf("models %s and %s share fingerprint %x", prev, m.Name(), p1.Fingerprint())
		}
		seen[p1.Fingerprint()] = m.Name()
	}
	// Observe sets and stripe widths are part of program identity too.
	base := CompileModel(c, delay.Unit{}, CompileOptions{})
	narrow := CompileModel(c, delay.Unit{}, CompileOptions{Width: 2})
	observed := CompileModel(c, delay.Unit{}, CompileOptions{Observe: []int{c.Outputs[0]}})
	if base.Fingerprint() == narrow.Fingerprint() || base.Fingerprint() == observed.Fingerprint() {
		t.Fatal("width/observe variants share the base fingerprint")
	}
}

// TestCompileDeterminism: compilation is a pure function of its inputs —
// same slot layout, delays, and ring shape every time.
func TestCompileDeterminism(t *testing.T) {
	c := bench.MustGenerate("C880")
	a := CompileModel(c, delay.FanoutLoaded{}, CompileOptions{})
	b := CompileModel(c, delay.FanoutLoaded{}, CompileOptions{})
	if a.LiveGates() != b.LiveGates() || a.GCDps() != b.GCDps() ||
		a.StripeWords() != b.StripeWords() || a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("recompile diverged: live %d/%d gcd %d/%d w %d/%d fp %x/%x",
			a.LiveGates(), b.LiveGates(), a.GCDps(), b.GCDps(),
			a.StripeWords(), b.StripeWords(), a.Fingerprint(), b.Fingerprint())
	}
	if a.CompileNS() <= 0 {
		t.Fatal("CompileNS not recorded")
	}
}

// TestProgramCacheKeyingEviction: distinct keys get distinct programs,
// repeated lookups hit, and the LRU bound evicts the least recently used
// entry first.
func TestProgramCacheKeyingEviction(t *testing.T) {
	c := bench.MustGenerate("C432")
	models := map[string]delay.Model{
		"zero":   delay.Zero{},
		"unit":   delay.Unit{},
		"fanout": delay.FanoutLoaded{},
	}
	builds := 0
	get := func(pc *ProgramCache, name string) *Program {
		m := models[name]
		fp := FingerprintModel(c, m, CompileOptions{})
		return pc.Get("C432/"+name, fp, func() *Program {
			builds++
			return CompileModel(c, m, CompileOptions{})
		})
	}
	pc := NewProgramCache(2)
	pZero := get(pc, "zero")
	pUnit := get(pc, "unit")
	if builds != 2 {
		t.Fatalf("2 distinct keys compiled %d times", builds)
	}
	if pZero == pUnit {
		t.Fatal("distinct delay models shared a compiled program")
	}
	if p := get(pc, "zero"); p != pZero {
		t.Fatal("cache hit returned a different program")
	}
	// unit is now LRU; inserting a third key evicts it, not zero.
	get(pc, "fanout")
	if pc.Len() != 2 {
		t.Fatalf("cache holds %d entries, cap 2", pc.Len())
	}
	builds = 0
	if p := get(pc, "zero"); p != pZero || builds != 0 {
		t.Fatal("LRU evicted the most recently used entry")
	}
	get(pc, "unit")
	if builds != 1 {
		t.Fatalf("evicted entry not recompiled (builds=%d)", builds)
	}
	st := pc.Stats()
	if st.Misses != 4 || st.Hits != 2 {
		t.Fatalf("stats hits=%d misses=%d, want 2/4", st.Hits, st.Misses)
	}
	if st.CompileNS <= 0 {
		t.Fatal("cumulative compile time not recorded")
	}
}

// TestProgramCacheFingerprintGuard: a key collision (same cache key,
// different program identity) must never serve the wrong program — the
// guard recompiles and replaces, counting a miss.
func TestProgramCacheFingerprintGuard(t *testing.T) {
	c := bench.MustGenerate("C432")
	pc := NewProgramCache(4)
	unitFP := FingerprintModel(c, delay.Unit{}, CompileOptions{})
	fanoutFP := FingerprintModel(c, delay.FanoutLoaded{}, CompileOptions{})
	pc.Get("collide", unitFP, func() *Program { return CompileModel(c, delay.Unit{}, CompileOptions{}) })
	got := pc.Get("collide", fanoutFP, func() *Program { return CompileModel(c, delay.FanoutLoaded{}, CompileOptions{}) })
	if got.Fingerprint() != fanoutFP {
		t.Fatal("stale program served across a fingerprint mismatch")
	}
	if st := pc.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats hits=%d misses=%d, want 0/2", st.Hits, st.Misses)
	}
}

// TestProgramCacheConcurrent: concurrent lookups of one key compile the
// program exactly once and every caller shares the same instance —
// exercised under -race in CI alongside concurrent striped executors
// running over the shared program.
func TestProgramCacheConcurrent(t *testing.T) {
	c := bench.MustGenerate("C432")
	m := delay.FanoutLoaded{}
	fp := FingerprintModel(c, m, CompileOptions{})
	pc := NewProgramCache(4)
	var mu sync.Mutex
	builds := 0
	progs := make([]*Program, 8)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := pc.Get("C432/fanout", fp, func() *Program {
				mu.Lock()
				builds++
				mu.Unlock()
				return CompileModel(c, m, CompileOptions{})
			})
			// Drive the shared program from this goroutine's own executor:
			// the program must be safely shareable read-only state.
			v1s := xorshiftVectors(80, c.NumInputs(), uint64(i)+1)
			v2s := xorshiftVectors(80, c.NumInputs(), uint64(i)+100)
			NewStriped(p).Run(packVectors(c.NumInputs(), v1s, v2s), 0)
			progs[i] = p
		}(i)
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("one key compiled %d times under contention", builds)
	}
	for i, p := range progs {
		if p != progs[0] {
			t.Fatalf("goroutine %d got a different program instance", i)
		}
	}
}

// TestProgramCacheEventHook: the OnEvent hook observes every hit and
// miss with the miss's compile time — the seam the service metrics use.
func TestProgramCacheEventHook(t *testing.T) {
	c := bench.MustGenerate("C432")
	pc := NewProgramCache(2)
	var events []string
	pc.OnEvent = func(hit bool, compileNS int64) {
		if hit {
			events = append(events, "hit")
		} else {
			events = append(events, fmt.Sprintf("miss:%v", compileNS > 0))
		}
	}
	fp := FingerprintModel(c, delay.Unit{}, CompileOptions{})
	build := func() *Program { return CompileModel(c, delay.Unit{}, CompileOptions{}) }
	pc.Get("k", fp, build)
	pc.Get("k", fp, build)
	if len(events) != 2 || events[0] != "miss:true" || events[1] != "hit" {
		t.Fatalf("events = %v", events)
	}
}

// TestProgramCacheParkTake: parked values come back only under their
// key and tag, once each; a successful Take counts as a hit; an entry
// holds a bounded number of idle values; and eviction or a fingerprint
// replacement frees the entry's idle values with it.
func TestProgramCacheParkTake(t *testing.T) {
	c := bench.MustGenerate("C432")
	get := func(pc *ProgramCache, key string, m delay.Model) {
		pc.Get(key, FingerprintModel(c, m, CompileOptions{}), func() *Program { return CompileModel(c, m, CompileOptions{}) })
	}
	pc := NewProgramCache(2)
	pc.Park("zero", "a", 1) // no entry yet: dropped
	get(pc, "zero", delay.Zero{})
	if v := pc.Take("zero", "a"); v != nil {
		t.Fatalf("value parked before its entry existed came back: %v", v)
	}
	pc.Park("zero", "a", 1)
	pc.Park("zero", "b", 2)
	pc.Park("zero", "a", 3)
	if v := pc.Take("zero", "c"); v != nil {
		t.Fatalf("Take under an unparked tag returned %v", v)
	}
	if v := pc.Take("unit", "a"); v != nil {
		t.Fatalf("Take under an uncached key returned %v", v)
	}
	for _, want := range []any{3, 1, nil} {
		if v := pc.Take("zero", "a"); v != want {
			t.Fatalf("Take = %v, want %v (newest first, each value once)", v, want)
		}
	}
	if st := pc.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 2/1 (a served Take is a hit)", st.Hits, st.Misses)
	}

	for i := 0; i < maxIdlePerProgram+2; i++ {
		pc.Park("zero", "n", i)
	}
	n := 0
	for pc.Take("zero", "n") != nil {
		n++
	}
	if n != maxIdlePerProgram {
		t.Fatalf("entry kept %d idle values, want %d", n, maxIdlePerProgram)
	}
	if v := pc.Take("zero", "b"); v != nil {
		t.Fatalf("a full entry kept its oldest idle value %v", v)
	}

	// "zero" is most recent; two more keys evict it and its idle "b".
	pc.Park("zero", "b", 2)
	get(pc, "unit", delay.Unit{})
	get(pc, "fanout", delay.FanoutLoaded{})
	get(pc, "zero", delay.Zero{})
	if v := pc.Take("zero", "b"); v != nil {
		t.Fatalf("idle value survived its entry's eviction: %v", v)
	}
	pc.Park("zero", "b", 2)
	get(pc, "zero", delay.Unit{}) // same key, other program: replaced
	if v := pc.Take("zero", "b"); v != nil {
		t.Fatalf("idle value survived a fingerprint replacement: %v", v)
	}
}
