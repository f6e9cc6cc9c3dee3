package sim

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/netlist"
)

// diffSpeculative compares every lane of every stripe of a packed batch
// against the scalar oracle, the only reference: toggle counts through
// Toggles and Count, the Any bits against the scalar counts,
// and inert lanes past the batch. It is the executor's core contract:
// compiling and speculating are execution strategies, never a result
// change. A stripe that mispredicted would have replayed on the scalar
// oracle and matched by construction, so the helper also requires zero
// fallbacks.
func diffSpeculative(t *testing.T, c *netlist.Circuit, m delay.Model, lanes int, seed uint64) {
	t.Helper()
	s := New(c, m)
	p := CompileModel(c, m, CompileOptions{})
	if p.ZeroDelay() != s.ZeroDelay() {
		t.Fatalf("compiled zeroDelay=%v, scalar %v", p.ZeroDelay(), s.ZeroDelay())
	}
	sp := NewSpeculative(p)
	v1s := xorshiftVectors(lanes, c.NumInputs(), seed)
	v2s := xorshiftVectors(lanes, c.NumInputs(), seed+1)
	pp := packVectors(c.NumInputs(), v1s, v2s)
	stripeLanes := p.StripeLanes()
	var dst []int32
	for stripe := 0; stripe*stripeLanes < lanes; stripe++ {
		r := sp.Run(pp, stripe)
		active := min(lanes-stripe*stripeLanes, r.AW*64)
		for l := 0; l < active; l++ {
			li := stripe*stripeLanes + l
			want := s.RunCycle(v1s[li], v2s[li])
			word, bit := l/64, l%64
			dst = r.Toggles(word, bit, dst)
			for g, wantC := range want.Toggles {
				if dst[g] != wantC {
					t.Fatalf("%s %d pairs lane %d gate %d (%s): %d toggles, scalar %d",
						m.Name(), lanes, li, g, c.Gates[g].Name, dst[g], wantC)
				}
				if got := r.Count(g, word, bit); got != wantC {
					t.Fatalf("%s lane %d: Count(%d,%d,%d) = %d, scalar %d", m.Name(), li, g, word, bit, got, wantC)
				}
				if any := r.Any[g*r.AW+word]>>uint(bit)&1 == 1; any != (wantC > 0) {
					t.Fatalf("%s Any gate %d lane %d = %v, scalar toggles %d", m.Name(), g, li, any, wantC)
				}
			}
		}
		// Lanes beyond the batch must be completely inert: no gate
		// toggles there.
		for l := active; l < r.AW*64; l++ {
			word, bit := l/64, l%64
			for g := 0; g < r.NSlots; g++ {
				if r.Any[g*r.AW+word]>>uint(bit)&1 != 0 || r.Count(g, word, bit) != 0 {
					t.Fatalf("inert lane %d: gate %d toggles %d times", l, g, r.Count(g, word, bit))
				}
			}
		}
	}
	if st := sp.Stats(); st.Fallbacks != 0 {
		t.Fatalf("%s %d pairs: %d of %d stripes mispredicted and replayed", m.Name(), lanes, st.Fallbacks, st.Stripes)
	}
}

// diffModels are the four delay models every differential runs.
var diffModels = []delay.Model{delay.Zero{}, delay.Unit{}, delay.FanoutLoaded{}, delay.StandardTable()}

// TestSpeculativeDifferentialScalar runs the executor's bit-identity
// contract on the 300-pair hyper-sample batch, one stripe of five active
// words (the estimator's production shape), on the ISCAS circuits across
// all four delay models: C3540 is the circuit of the stream-timed
// benchmark, whose waveform merges take most of its time, and C7552, the
// stream-zero-wide circuit, runs under zero and fanout delay.
// TestStripedDifferentialScalar runs the same circuits on batches of
// several stripes. CI runs the C880, C3540 and C7552 subtrees of both
// under -race.
func TestSpeculativeDifferentialScalar(t *testing.T) {
	for _, name := range []string{"C432", "C880", "C3540"} {
		c := bench.MustGenerate(name)
		for _, m := range diffModels {
			t.Run(name+"/"+m.Name(), func(t *testing.T) { diffSpeculative(t, c, m, 300, 7) })
		}
	}
	c := bench.MustGenerate("C7552")
	for _, m := range []delay.Model{delay.Zero{}, delay.FanoutLoaded{}} {
		t.Run("C7552/"+m.Name(), func(t *testing.T) { diffSpeculative(t, c, m, 300, 7) })
	}
}

// randomCase is TestSpeculativeRandomDifferential's case for a seed: a
// random DAG's options, its delay model and the batch size. Batches of
// 130, 386 and 642 pairs run 3 and 7 active words and two stripes.
func randomCase(seed uint64) (bench.RandomOptions, delay.Model, int) {
	opt := bench.RandomOptions{
		Inputs:  4 + int(seed%13),
		Outputs: 1 + int(seed%5),
		Gates:   20 + int(seed*7%140),
		MaxFan:  2 + int(seed%4),
		Seed:    seed,
	}
	return opt, diffModels[seed%uint64(len(diffModels))], 130 + int(seed%3)*256
}

// TestSpeculativeRandomDifferential checks the executor against the
// scalar oracle on seeded random DAGs — the shapes the ISCAS set does not
// cover (deep XOR chains, degenerate fan-in, tiny cones). Each case is
// logged, and FuzzSpeculative's seed corpus holds every one, so any
// failure reproduces as a one-line test case.
func TestSpeculativeRandomDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := uint64(1); seed <= 50; seed++ {
		opt, m, pairs := randomCase(seed)
		c, err := bench.RandomCircuit(opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: %s (%d gates), %s delay, %d pairs", seed, c.Name, len(c.Gates), m.Name(), pairs)
		diffSpeculative(t, c, m, pairs, seed*3+1)
	}
}

// checkReplay runs every stripe of the batch through the waveform merges,
// then replays it on the scalar oracle, and requires the replay to leave
// exactly the merges' Any, count planes and every Count.
func checkReplay(t *testing.T, c *netlist.Circuit, m delay.Model, pairs int, seed uint64) {
	t.Helper()
	sp := NewSpeculative(CompileModel(c, m, CompileOptions{}))
	pp := settleBatch(c.NumInputs(), pairs, seed)
	for stripe := 0; stripe*stripeWords < pp.Blocks(); stripe++ {
		r := sp.Run(pp, stripe)
		n := r.NSlots * r.AW
		any := append([]uint64(nil), r.Any[:n]...)
		var planes [][]uint64
		for l := 0; l < r.Levels(); l++ {
			planes = append(planes, append([]uint64(nil), r.CountPlane(l)...))
		}
		counts := make([]int32, 0, n*64)
		for i := 0; i < n; i++ {
			for l := 0; l < 64; l++ {
				counts = append(counts, r.Count(i/r.AW, i%r.AW, l))
			}
		}

		replayStripe(sp, pp, stripe)
		at := func(what string, i int) {
			t.Helper()
			t.Fatalf("%s %s %d pairs stripe %d: replay's %s %d differs from the merges'", c.Name, m.Name(), pairs, stripe, what, i)
		}
		if r.Levels() != len(planes) {
			at("count levels", r.Levels())
		}
		for l, plane := range planes {
			for i, w := range r.CountPlane(l) {
				if w != plane[i] {
					at("count plane word", l*n+i)
				}
			}
		}
		for i := 0; i < n; i++ {
			if r.Any[i] != any[i] {
				at("Any word", i)
			}
			for l := 0; l < 64; l++ {
				if r.Count(i/r.AW, i%r.AW, l) != counts[i*64+l] {
					at("count of word", i)
				}
			}
		}
	}
	if st := sp.Stats(); st.Fallbacks != 0 {
		t.Fatalf("%s %s %d pairs: %d stripes mispredicted", c.Name, m.Name(), pairs, st.Fallbacks)
	}
}

// replayStripe runs stripe number `stripe` of the packed batch on the
// misprediction replay, as Run does after wave reports a misprediction.
func replayStripe(sp *Speculative, pp *PackedPairs, stripe int) *StripedResult {
	sp.replay(pp, sp.prepare(pp, stripe))
	sp.finalizeTimed()
	return &sp.res
}

// TestSpeculativeReplayMatchesScalar calls the misprediction replay
// directly, since no circuit reaches it: on four ISCAS circuits — C6288's
// deep glitch counts reach the deep counter planes — under the three
// timed delay models, from one pair to a full stripe, the replay on the
// scalar oracle must leave exactly what the merges left.
func TestSpeculativeReplayMatchesScalar(t *testing.T) {
	for _, name := range []string{"C432", "C880", "C3540", "C6288"} {
		c := bench.MustGenerate(name)
		for _, m := range diffModels[1:] {
			for _, pairs := range []int{1, 65, 300, 512} {
				checkReplay(t, c, m, pairs, uint64(pairs))
			}
		}
	}
}

// FuzzSpeculative builds a random DAG of 1–16 inputs, at most 300 gates
// and up to five inputs a gate (so the ≥3-input merge runs), one of the
// four delay models and a batch of 1–1,100 pairs (up to three stripes)
// from the fuzz bytes. Run must match the scalar oracle lane for lane
// with no fallback, and, on a timed model, the replay must match Run.
// The seed corpus is TestSpeculativeRandomDifferential's cases.
func FuzzSpeculative(f *testing.F) {
	for seed := uint64(1); seed <= 50; seed++ {
		opt, _, pairs := randomCase(seed)
		f.Add(seed, uint8(opt.Inputs-1), uint8(opt.Outputs-1), uint16(opt.Gates-1),
			uint8(opt.MaxFan-2), uint8(seed%uint64(len(diffModels))), uint16(pairs-1))
	}
	f.Fuzz(func(t *testing.T, seed uint64, inputs, outputs uint8, gates uint16, maxFan, model uint8, pairs uint16) {
		c, err := bench.RandomCircuit(bench.RandomOptions{
			Inputs:  1 + int(inputs%16),
			Outputs: 1 + int(outputs%5),
			Gates:   1 + int(gates%300),
			MaxFan:  2 + int(maxFan%4),
			Seed:    seed,
		})
		if err != nil {
			t.Skip(err)
		}
		m := diffModels[int(model)%len(diffModels)]
		n := 1 + int(pairs%1100)
		diffSpeculative(t, c, m, n, seed*3+1)
		if m != diffModels[0] {
			checkReplay(t, c, m, n, seed)
		}
	})
}

// TestSpeculativeAllocFree pins the steady-state allocation contract of
// the power path: after warm-up, a stripe run touches the heap zero
// times.
func TestSpeculativeAllocFree(t *testing.T) {
	c := bench.MustGenerate("C432")
	p := CompileModel(c, delay.FanoutLoaded{}, CompileOptions{})
	sp := NewSpeculative(p)
	v1s := xorshiftVectors(300, c.NumInputs(), 31)
	v2s := xorshiftVectors(300, c.NumInputs(), 32)
	pp := packVectors(c.NumInputs(), v1s, v2s)
	sp.Run(pp, 0)
	sp.Run(pp, 0)
	if allocs := testing.AllocsPerRun(10, func() { sp.Run(pp, 0) }); allocs != 0 {
		t.Fatalf("speculative Run allocates %.1f/op in steady state, want 0", allocs)
	}
}

// TestSpeculativeStats checks the speculation counters: timed stripes
// are counted, hazard patches happen, and the ISCAS circuits never
// mispredict (the differential suite would catch a wrong patch; this
// pins that the fast path actually runs).
func TestSpeculativeStats(t *testing.T) {
	c := bench.MustGenerate("C880")
	v1s := xorshiftVectors(512, c.NumInputs(), 51)
	v2s := xorshiftVectors(512, c.NumInputs(), 52)
	pp := packVectors(c.NumInputs(), v1s, v2s)

	p := CompileModel(c, delay.FanoutLoaded{}, CompileOptions{})
	sp := NewSpeculative(p)
	sp.Run(pp, 0)
	st := sp.Stats()
	if st.Stripes != 1 || st.PatchedWords == 0 {
		t.Fatalf("timed stats = %+v, want 1 stripe and nonzero patched words", st)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("unexpected fallbacks: %+v", st)
	}

	// Zero-delay programs never speculate: settle IS the result.
	pz := CompileModel(c, delay.Zero{}, CompileOptions{})
	spz := NewSpeculative(pz)
	spz.Run(pp, 0)
	if stz := spz.Stats(); stz != (SpecStats{}) {
		t.Fatalf("zero-delay stats = %+v, want zero", stz)
	}

	var agg SpecStats
	agg.Add(st)
	agg.Add(st)
	if agg.Stripes != 2*st.Stripes || agg.PatchedWords != 2*st.PatchedWords {
		t.Fatalf("Add: %+v from %+v", agg, st)
	}
}

func benchSpeculative(b *testing.B, model delay.Model) {
	c := bench.MustGenerate("C3540")
	p := CompileModel(c, model, CompileOptions{})
	sp := NewSpeculative(p)
	v1s := xorshiftVectors(512, c.NumInputs(), 7)
	v2s := xorshiftVectors(512, c.NumInputs(), 8)
	pp := packVectors(c.NumInputs(), v1s, v2s)
	sp.Run(pp, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Run(pp, 0)
	}
}

// BenchmarkSpeculativeStripe measures one full 512-lane C3540 stripe of
// the settle-then-patch kernel under fanout and table delays — the
// kernel-level view of the stream-timed end-to-end numbers.
func BenchmarkSpeculativeStripe(b *testing.B) {
	b.Run("spec/fanout", func(b *testing.B) { benchSpeculative(b, delay.FanoutLoaded{}) })
	b.Run("spec/table", func(b *testing.B) { benchSpeculative(b, delay.StandardTable()) })
}
