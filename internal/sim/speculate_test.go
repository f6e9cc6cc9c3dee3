package sim

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/netlist"
)

// diffSpeculative compares every lane of every stripe of a packed batch
// against both the full event wheel and the scalar oracle — toggle
// counts, Any/Multi masks, settle times, event totals. It is the
// speculative engine's core contract: settle-then-patch is an execution
// strategy, never a result change.
func diffSpeculative(t *testing.T, c *netlist.Circuit, m delay.Model, width, lanes int, seed uint64) {
	t.Helper()
	s := New(c, m)
	p := CompileModel(c, m, CompileOptions{Width: width})
	st := NewStriped(p)
	sp := NewSpeculative(p)
	v1s := xorshiftVectors(lanes, c.NumInputs(), seed)
	v2s := xorshiftVectors(lanes, c.NumInputs(), seed+1)
	pp := packVectors(c.NumInputs(), v1s, v2s)
	stripeLanes := p.StripeLanes()
	var dst []int32
	for stripe := 0; stripe*stripeLanes < lanes; stripe++ {
		rw := st.Run(pp, stripe)
		r := sp.Run(pp, stripe)
		active := lanes - stripe*stripeLanes
		if active > r.AW*64 {
			active = r.AW * 64
		}
		// Word-level planes must match the wheel exactly (the energy path
		// reads them without per-lane reconstruction).
		for slot := 0; slot < r.NSlots; slot++ {
			for w := 0; w < r.AW; w++ {
				if got, want := r.Any[slot*r.AW+w], rw.Any[slot*r.AW+w]; got != want {
					t.Fatalf("%s slot %d word %d: speculative Any %#x, wheel %#x", m.Name(), slot, w, got, want)
				}
				if got, want := r.MultiMask(slot, w), rw.MultiMask(slot, w); got != want {
					t.Fatalf("%s slot %d word %d: speculative Multi %#x, wheel %#x", m.Name(), slot, w, got, want)
				}
			}
		}
		for l := 0; l < active; l++ {
			li := stripe*stripeLanes + l
			want := s.RunCycle(v1s[li], v2s[li])
			word, bit := l/64, l%64
			dst = r.Toggles(word, bit, dst)
			for g := range want.Toggles {
				if dst[g] != want.Toggles[g] {
					t.Fatalf("%s w%d lane %d gate %d (%s): speculative %d toggles, scalar %d",
						m.Name(), width, li, g, c.Gates[g].Name, dst[g], want.Toggles[g])
				}
			}
			for slot := range r.Gates {
				if got, wantC := r.Count(slot, word, bit), rw.Count(slot, word, bit); got != wantC {
					t.Fatalf("%s lane %d slot %d: speculative count %d, wheel %d", m.Name(), li, slot, got, wantC)
				}
			}
			if r.SettleTime[l] != want.SettleTime {
				t.Fatalf("%s lane %d: settle %d ps, scalar %d ps", m.Name(), li, r.SettleTime[l], want.SettleTime)
			}
			if r.Events[l] != want.Events {
				t.Fatalf("%s lane %d: %d events, scalar %d", m.Name(), li, r.Events[l], want.Events)
			}
		}
		// Lanes beyond the batch must be completely inert.
		for l := active; l < r.AW*64; l++ {
			if r.Events[l] != 0 || r.SettleTime[l] != 0 {
				t.Fatalf("inert lane %d: %d events, settle %d", l, r.Events[l], r.SettleTime[l])
			}
		}
	}
}

// TestSpeculativeDifferentialScalar runs the speculative engine's
// bit-identity contract on the ISCAS circuits across all four delay
// models, full and ragged stripes: C3540 is the circuit of the
// stream-timed benchmark, whose waveform merges take most of its time,
// and C7552, the stream-zero-wide circuit, runs the production shape
// under zero and fanout delay. CI runs the C880, C3540 and C7552
// subtrees under -race as the speculative differential step.
func TestSpeculativeDifferentialScalar(t *testing.T) {
	models := []delay.Model{delay.Zero{}, delay.Unit{}, delay.FanoutLoaded{}, delay.StandardTable()}
	for _, name := range []string{"C432", "C880", "C3540"} {
		c := bench.MustGenerate(name)
		for _, m := range models {
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				diffSpeculative(t, c, m, 8, 300, 7)
				diffSpeculative(t, c, m, 2, 200, 11)
			})
		}
	}
	c := bench.MustGenerate("C7552")
	for _, m := range []delay.Model{delay.Zero{}, delay.FanoutLoaded{}} {
		t.Run("C7552/"+m.Name(), func(t *testing.T) { diffSpeculative(t, c, m, 8, 300, 7) })
	}
}

// TestSpeculativeRandomDifferential fuzzes the settle-then-patch engine
// against the wheel and the scalar oracle on seeded random DAGs — the
// shapes the ISCAS set does not cover (deep XOR chains, degenerate
// fan-in, tiny cones). Seeds are logged so any failure reproduces as a
// one-line test case.
func TestSpeculativeRandomDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	models := []delay.Model{delay.Zero{}, delay.Unit{}, delay.FanoutLoaded{}, delay.StandardTable()}
	for seed := uint64(1); seed <= 50; seed++ {
		opt := bench.RandomOptions{
			Inputs:  4 + int(seed%13),
			Outputs: 1 + int(seed%5),
			Gates:   20 + int(seed*7%140),
			MaxFan:  2 + int(seed%4),
			Seed:    seed,
		}
		c, err := bench.RandomCircuit(opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: %s (%d gates)", seed, c.Name, len(c.Gates))
		m := models[seed%uint64(len(models))]
		diffSpeculative(t, c, m, 2, 130, seed*3+1)
	}
}

// TestSpeculativeAllocFree pins the steady-state allocation contract of
// the power path (LaneStats off): after warm-up, a stripe run touches
// the heap zero times.
func TestSpeculativeAllocFree(t *testing.T) {
	c := bench.MustGenerate("C432")
	p := CompileModel(c, delay.FanoutLoaded{}, CompileOptions{})
	sp := NewSpeculative(p)
	sp.LaneStats = false
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
	sp.LaneStats = false
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

func benchWheel(b *testing.B, model delay.Model) {
	c := bench.MustGenerate("C3540")
	p := CompileModel(c, model, CompileOptions{})
	st := NewStriped(p)
	st.LaneStats = false
	v1s := xorshiftVectors(512, c.NumInputs(), 7)
	v2s := xorshiftVectors(512, c.NumInputs(), 8)
	pp := packVectors(c.NumInputs(), v1s, v2s)
	st.Run(pp, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Run(pp, 0)
	}
}

// BenchmarkSpeculativeStripe measures one full 512-lane stripe of the
// settle-then-patch kernel next to the event wheel on the same inputs —
// the kernel-level view of the benchstream end-to-end numbers.
func BenchmarkSpeculativeStripe(b *testing.B) {
	b.Run("spec/fanout", func(b *testing.B) { benchSpeculative(b, delay.FanoutLoaded{}) })
	b.Run("spec/table", func(b *testing.B) { benchSpeculative(b, delay.StandardTable()) })
	b.Run("wheel/fanout", func(b *testing.B) { benchWheel(b, delay.FanoutLoaded{}) })
	b.Run("wheel/table", func(b *testing.B) { benchWheel(b, delay.StandardTable()) })
}
