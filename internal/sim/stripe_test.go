package sim

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/netlist"
)

// packVectors builds a PackedPairs batch from per-lane vector slices.
func packVectors(inputs int, v1s, v2s [][]bool) *PackedPairs {
	var pp PackedPairs
	pp.Reset(inputs, len(v1s))
	for i := range v1s {
		pp.SetPair(i, v1s[i], v2s[i])
	}
	return &pp
}

// TestStripedDifferentialScalar runs the executor's bit-identity
// contract on batches of several stripes, whose last stripe is ragged:
// 600 pairs are a full 512-pair stripe, then two words with a partial
// second, so the executor also reshapes between stripes of one batch.
// The circuits and delay models are TestSpeculativeDifferentialScalar's,
// which runs the single-stripe production shape.
func TestStripedDifferentialScalar(t *testing.T) {
	for _, name := range []string{"C432", "C880", "C3540"} {
		c := bench.MustGenerate(name)
		for _, m := range diffModels {
			t.Run(name+"/"+m.Name(), func(t *testing.T) { diffSpeculative(t, c, m, 600, 11) })
		}
	}
	c := bench.MustGenerate("C7552")
	for _, m := range []delay.Model{delay.Zero{}, delay.FanoutLoaded{}} {
		t.Run("C7552/"+m.Name(), func(t *testing.T) { diffSpeculative(t, c, m, 600, 11) })
	}
}

// TestStripedReuse runs one executor across rounds of different batch
// sizes (so the active word count changes run to run) and cross-checks
// each round against a fresh executor: value, arena and toggle state
// must be fully self-cleaning, including across aw changes.
func TestStripedReuse(t *testing.T) {
	c := bench.MustGenerate("C432")
	m := delay.FanoutLoaded{}
	p := CompileModel(c, m, CompileOptions{})
	st := NewSpeculative(p)
	// The lane sequence walks active word counts 5→1→8→7→8→1→3: every
	// reshape direction, including the adjacent 8→7 narrowing (each run
	// is checked against a fresh executor, so any cross-shape residue
	// shows).
	for round, lanes := range []int{300, 64, 512, 416, 500, 1, 130} {
		v1s := xorshiftVectors(lanes, c.NumInputs(), 100+uint64(round))
		v2s := xorshiftVectors(lanes, c.NumInputs(), 200+uint64(round))
		pp := packVectors(c.NumInputs(), v1s, v2s)
		got := st.Run(pp, 0)
		want := NewSpeculative(p).Run(pp, 0)
		if got.AW != want.AW {
			t.Fatalf("round %d: AW %d vs %d", round, got.AW, want.AW)
		}
		for i := range want.Any {
			if got.Any[i] != want.Any[i] {
				t.Fatalf("round %d: reused executor diverged at Any[%d]", round, i)
			}
		}
		for s := 0; s < got.NSlots; s++ {
			for w := 0; w < got.AW; w++ {
				for l := 0; l < 64; l++ {
					if got.Count(s, w, l) != want.Count(s, w, l) {
						t.Fatalf("round %d slot %d word %d lane %d: count %d vs %d",
							round, s, w, l, got.Count(s, w, l), want.Count(s, w, l))
					}
				}
			}
		}
	}
}

// TestStripedResultAliasing is the regression test for the shared
// aliasing contract (the striped analogue of Result.CopyToggles /
// TestResultCopyToggles): StripedResult.Any is executor-owned and
// rewritten by the next Run, while Toggles copies into a caller-owned
// slice that survives.
func TestStripedResultAliasing(t *testing.T) {
	c := bench.MustGenerate("C432")
	p := CompileModel(c, delay.FanoutLoaded{}, CompileOptions{})
	st := NewSpeculative(p)
	v1s := xorshiftVectors(64, c.NumInputs(), 21)
	v2s := xorshiftVectors(64, c.NumInputs(), 22)
	r := st.Run(packVectors(c.NumInputs(), v1s, v2s), 0)
	snap := r.Toggles(0, 0, nil)
	aliasedAny := r.Any
	var activity int32
	for _, n := range snap {
		activity += n
	}
	if activity == 0 {
		t.Fatal("expected lane 0 activity")
	}
	hadAny := false
	for _, w := range aliasedAny {
		hadAny = hadAny || w != 0
	}
	if !hadAny {
		t.Fatal("active run set no Any bits")
	}
	// A quiet cycle (v1 == v2) rewrites the executor-owned buffers to zero.
	st.Run(packVectors(c.NumInputs(), v1s, v1s), 0)
	// The held reference now reads all-zero: the same backing array was
	// rewritten in place — the documented hazard the contract warns about.
	for _, w := range aliasedAny {
		if w != 0 {
			t.Fatal("quiet run left executor-owned Any bits set — the aliasing contract is stale")
		}
	}
	// The pre-Run snapshot must be unaffected by the second run.
	var still int32
	for _, n := range snap {
		still += n
	}
	if still != activity {
		t.Fatal("Toggles snapshot was overwritten by a later Run")
	}
	// Reusing a big-enough dst must not allocate a new backing array.
	dst := make([]int32, 0, c.NumGates())
	out := r.Toggles(0, 0, dst)
	if &out[0] != &dst[:1][0] {
		t.Fatal("Toggles ignored reusable dst")
	}
}

// TestStripedAllocFree pins the steady state at zero allocations per
// run once the arena and toggle planes have grown to the circuit's
// depth, for a timed stripe and the zero-delay settle walk.
func TestStripedAllocFree(t *testing.T) {
	c := bench.MustGenerate("C432")
	v1s := xorshiftVectors(300, c.NumInputs(), 31)
	v2s := xorshiftVectors(300, c.NumInputs(), 32)
	pp := packVectors(c.NumInputs(), v1s, v2s)
	for _, m := range []delay.Model{delay.FanoutLoaded{}, delay.Zero{}} {
		st := NewSpeculative(CompileModel(c, m, CompileOptions{}))
		st.Run(pp, 0)
		st.Run(pp, 0)
		if allocs := testing.AllocsPerRun(10, func() { st.Run(pp, 0) }); allocs != 0 {
			t.Fatalf("%s: Run allocates %.1f/op in steady state, want 0", m.Name(), allocs)
		}
	}
}

// TestStripedZeroDelayEngine exercises the compiled zero-delay kernel's
// glitch-free contract directly: counts are 0/1 and live in Any alone,
// with no count planes.
func TestStripedZeroDelayEngine(t *testing.T) {
	c := bench.MustGenerate("C432")
	p := CompileModel(c, delay.Zero{}, CompileOptions{})
	if !p.ZeroDelay() {
		t.Fatal("zero model did not compile to the zero-delay kernel")
	}
	st := NewSpeculative(p)
	v1s := xorshiftVectors(100, c.NumInputs(), 41)
	v2s := xorshiftVectors(100, c.NumInputs(), 42)
	r := st.Run(packVectors(c.NumInputs(), v1s, v2s), 0)
	if r.Levels() != 0 {
		t.Fatalf("zero-delay result has %d count planes", r.Levels())
	}
	for s := 0; s < r.NSlots; s++ {
		for w := 0; w < r.AW; w++ {
			for l := 0; l < 64; l++ {
				if n := r.Count(s, w, l); n > 1 {
					t.Fatalf("zero-delay Count(%d,%d,%d) = %d", s, w, l, n)
				}
			}
		}
	}
}

// TestNewStripedResultMatchesRun: a result built from a run's per-lane
// counts must read back exactly like the run's own — Any, every count
// plane and every Count — on every delay model, with counts deep enough
// (C6288, unit delay) to reach the overflow planes.
func TestNewStripedResultMatchesRun(t *testing.T) {
	c := bench.MustGenerate("C6288")
	v1s := xorshiftVectors(300, c.NumInputs(), 7)
	v2s := xorshiftVectors(300, c.NumInputs(), 8)
	pp := packVectors(c.NumInputs(), v1s, v2s)
	for _, m := range []delay.Model{delay.Zero{}, delay.Unit{}, delay.FanoutLoaded{}, delay.StandardTable()} {
		r := NewSpeculative(CompileModel(c, m, CompileOptions{})).Run(pp, 0)
		n := r.NSlots * r.AW
		counts := make([][64]uint8, n)
		deepest := int32(0)
		for i := range counts {
			for l := range counts[i] {
				cnt := r.Count(i/r.AW, i%r.AW, l)
				counts[i][l] = uint8(cnt)
				deepest = max(deepest, cnt)
			}
		}
		got := NewStripedResult(r.AW, counts, r.Levels() == 0)
		if got.NSlots != r.NSlots || got.AW != r.AW || got.Levels() != r.Levels() {
			t.Fatalf("%s: shape %d×%d×%d levels, run %d×%d×%d", m.Name(),
				got.NSlots, got.AW, got.Levels(), r.NSlots, r.AW, r.Levels())
		}
		for l := 0; l < r.Levels(); l++ {
			gp, rp := got.CountPlane(l), r.CountPlane(l)
			for i := range rp {
				if gp[i] != rp[i] {
					t.Fatalf("%s level %d word %d: %x, run %x", m.Name(), l, i, gp[i], rp[i])
				}
			}
		}
		for i := 0; i < n; i++ {
			s, k := i/r.AW, i%r.AW
			if got.Any[i] != r.Any[i] {
				t.Fatalf("%s word %d: Any %x, run %x", m.Name(), i, got.Any[i], r.Any[i])
			}
			for l := 0; l < 64; l++ {
				if a, b := got.Count(s, k, l), r.Count(s, k, l); a != b {
					t.Fatalf("%s Count(%d,%d,%d) = %d, run %d", m.Name(), s, k, l, a, b)
				}
			}
		}
		t.Logf("%s: deepest count %d", m.Name(), deepest)
	}
}

// TestTimedInertialSemantics pins down the timed simulator's inertial
// rules with hand-computed cases — pulse swallowing, simultaneous input
// edges, and pending-event replacement with stale queue entries — on the
// scalar path and on the compiled executor, whose waveform merges and
// misprediction replay must both agree with the scalar result in every
// lane.
func TestTimedInertialSemantics(t *testing.T) {
	type peak struct {
		gate    string
		toggles int32
	}
	cases := []struct {
		name   string
		build  func(t *testing.T) *netlist.Circuit
		delays func(c *netlist.Circuit) fixedDelays // indexed by gate name
		v1, v2 []bool
		want   []peak
		events int
		settle int64
	}{
		{
			// The NOT falls 2 ps after a rises; the AND's own delay is 5 ps,
			// so the 2 ps input pulse is shorter than the gate's inertia and
			// is swallowed: y never toggles.
			name:  "pulse-swallowed",
			build: hazardCircuit,
			delays: func(c *netlist.Circuit) fixedDelays {
				d := make(fixedDelays, c.NumGates())
				d[c.GateIndex("na")] = 2
				d[c.GateIndex("y")] = 5
				return d
			},
			v1:     []bool{false},
			v2:     []bool{true},
			want:   []peak{{"na", 1}, {"y", 0}},
			events: 2, // a toggles, na toggles; the y pulse is cancelled
			settle: 2,
		},
		{
			// Same hazard with a slow inverter: the 6 ps pulse outlives the
			// AND's 5 ps delay, so y glitches up and back down.
			name:  "pulse-propagates",
			build: hazardCircuit,
			delays: func(c *netlist.Circuit) fixedDelays {
				d := make(fixedDelays, c.NumGates())
				d[c.GateIndex("na")] = 6
				d[c.GateIndex("y")] = 5
				return d
			},
			v1:     []bool{false},
			v2:     []bool{true},
			want:   []peak{{"na", 1}, {"y", 2}},
			events: 4,
			settle: 11, // y falls at t = 6 + 5
		},
		{
			// Both XOR inputs flip at t = 0. The delta-cycle rule applies
			// both edges before re-evaluating, so the XOR sees them together
			// and never schedules an event.
			name: "simultaneous-edges-cancel",
			build: func(t *testing.T) *netlist.Circuit {
				t.Helper()
				b := netlist.NewBuilder("simul")
				a := b.Input("a")
				bb := b.Input("b")
				y := b.Gate(netlist.Xor, "y", a, bb)
				b.Output(y)
				c, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return c
			},
			delays: func(c *netlist.Circuit) fixedDelays {
				d := make(fixedDelays, c.NumGates())
				d[c.GateIndex("y")] = 3
				return d
			},
			v1:     []bool{false, false},
			v2:     []bool{true, true},
			want:   []peak{{"y", 0}},
			events: 2, // the two input toggles only
			settle: 0,
		},
		{
			// Staggered triple-XOR: x = XOR(a, b1, b2) with b1, b2 buffered
			// copies of a at 1 and 2 ps, x at 5 ps. a rising schedules x up
			// for t = 5; at t = 1 the b1 edge cancels it (inertial swallow,
			// the queued t = 5 entry goes stale); at t = 2 the b2 edge
			// schedules x up again for t = 7. Exactly one x toggle, at 7 ps
			// — wrong lazy-cancellation bookkeeping fires the stale t = 5
			// entry instead.
			name: "stale-entry-replacement",
			build: func(t *testing.T) *netlist.Circuit {
				t.Helper()
				b := netlist.NewBuilder("stale")
				a := b.Input("a")
				b1 := b.Gate(netlist.Buf, "b1", a)
				b2 := b.Gate(netlist.Buf, "b2", a)
				x := b.Gate(netlist.Xor, "x", a, b1, b2)
				b.Output(x)
				c, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return c
			},
			delays: func(c *netlist.Circuit) fixedDelays {
				d := make(fixedDelays, c.NumGates())
				d[c.GateIndex("b1")] = 1
				d[c.GateIndex("b2")] = 2
				d[c.GateIndex("x")] = 5
				return d
			},
			v1:     []bool{false},
			v2:     []bool{true},
			want:   []peak{{"b1", 1}, {"b2", 1}, {"x", 1}},
			events: 4,
			settle: 7,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			model := tc.delays(c)
			s := New(c, model)
			res := s.RunCycle(tc.v1, tc.v2)
			for _, w := range tc.want {
				if got := res.Toggles[c.GateIndex(w.gate)]; got != w.toggles {
					t.Errorf("scalar %s: %d toggles, want %d", w.gate, got, w.toggles)
				}
			}
			if res.Events != tc.events {
				t.Errorf("scalar events = %d, want %d", res.Events, tc.events)
			}
			if res.SettleTime != tc.settle {
				t.Errorf("scalar settle = %d, want %d", res.SettleTime, tc.settle)
			}

			// The same pair replicated over 300 lanes — five words, a
			// partial stripe — must reproduce the scalar outcome in every
			// lane, from the merges and from the replay.
			const lanes = 300
			v1s := make([][]bool, lanes)
			v2s := make([][]bool, lanes)
			for l := range v1s {
				v1s[l], v2s[l] = tc.v1, tc.v2
			}
			pp := packVectors(c.NumInputs(), v1s, v2s)
			sp := NewSpeculative(Compile(c, s.DelaysPS()))
			for _, ex := range []struct {
				name string
				run  func(*PackedPairs, int) *StripedResult
			}{
				{"merges", sp.Run},
				{"replay", func(pp *PackedPairs, stripe int) *StripedResult { return replayStripe(sp, pp, stripe) }},
			} {
				r := ex.run(pp, 0)
				var dst []int32
				for l := 0; l < lanes; l++ {
					dst = r.Toggles(l/64, l%64, dst)
					for _, w := range tc.want {
						if got := dst[c.GateIndex(w.gate)]; got != w.toggles {
							t.Fatalf("%s lane %d %s: %d toggles, want %d", ex.name, l, w.gate, got, w.toggles)
						}
					}
				}
			}
			if st := sp.Stats(); st.Fallbacks != 0 {
				t.Fatalf("the merges mispredicted: %+v", st)
			}
		})
	}
}

// TestStripedGCDNormalization checks that the timed kernel divides the
// delay GCD out of its delays, and that the merges and the replay, which
// both run the normalized delays, count what the scalar oracle counts in
// ps: a 600-ps pulse into a 500-ps AND glitches it, a 200-ps one is
// swallowed.
func TestStripedGCDNormalization(t *testing.T) {
	c := hazardCircuit(t)
	na, y := c.GateIndex("na"), c.GateIndex("y")
	for _, tc := range []struct {
		naPS   int64
		glitch int32
	}{{600, 2}, {200, 0}} {
		d := make(fixedDelays, c.NumGates())
		d[na], d[y] = tc.naPS, 500
		p := CompileModel(c, d, CompileOptions{})
		if p.delays[na] != tc.naPS/100 || p.delays[y] != 5 {
			t.Fatalf("na %d ps: normalized delays %v, want the ps delays over 100", tc.naPS, p.delays)
		}
		want := New(c, d).RunCycle([]bool{false}, []bool{true}).Toggles[y]
		if want != tc.glitch {
			t.Fatalf("na %d ps: scalar y toggles %d, want %d", tc.naPS, want, tc.glitch)
		}
		pp := packVectors(1, [][]bool{{false}}, [][]bool{{true}})
		sp := NewSpeculative(p)
		if got := sp.Run(pp, 0).Count(y, 0, 0); got != want {
			t.Fatalf("na %d ps: merged y toggles %d, scalar %d", tc.naPS, got, want)
		}
		if got := replayStripe(sp, pp, 0).Count(y, 0, 0); got != want {
			t.Fatalf("na %d ps: replayed y toggles %d, scalar %d", tc.naPS, got, want)
		}
	}
}
