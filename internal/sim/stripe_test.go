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

// diffStriped compares every lane of every stripe of a packed batch
// against the scalar oracle — toggle counts, Any, settle time, events.
func diffStriped(t *testing.T, c *netlist.Circuit, m delay.Model, width, lanes int, seed uint64) {
	t.Helper()
	s := New(c, m)
	p := CompileModel(c, m, CompileOptions{Width: width})
	if p.ZeroDelay() != s.ZeroDelay() {
		t.Fatalf("compiled zeroDelay=%v, scalar %v", p.ZeroDelay(), s.ZeroDelay())
	}
	st := NewStriped(p)
	v1s := xorshiftVectors(lanes, c.NumInputs(), seed)
	v2s := xorshiftVectors(lanes, c.NumInputs(), seed+1)
	pp := packVectors(c.NumInputs(), v1s, v2s)
	stripeLanes := p.StripeLanes()
	var dst []int32
	for stripe := 0; stripe*stripeLanes < lanes; stripe++ {
		r := st.Run(pp, stripe)
		active := lanes - stripe*stripeLanes
		if active > r.AW*64 {
			active = r.AW * 64
		}
		for l := 0; l < active; l++ {
			li := stripe*stripeLanes + l
			want := s.RunCycle(v1s[li], v2s[li])
			word, bit := l/64, l%64
			dst = r.Toggles(word, bit, dst)
			for g := range want.Toggles {
				if dst[g] != want.Toggles[g] {
					t.Fatalf("%s w%d lane %d gate %d (%s): striped %d toggles, scalar %d",
						m.Name(), width, li, g, c.Gates[g].Name, dst[g], want.Toggles[g])
				}
			}
			for slot, gid := range r.Gates {
				wantC := want.Toggles[gid]
				if got := r.Count(slot, word, bit); got != wantC {
					t.Fatalf("Count(%d,%d,%d) = %d, want %d", slot, word, bit, got, wantC)
				}
				if any := r.Any[slot*r.AW+word]>>uint(bit)&1 == 1; any != (wantC > 0) {
					t.Fatalf("Any slot %d lane %d = %v, toggles %d", slot, li, any, wantC)
				}
				if multi := r.MultiMask(slot, word)>>uint(bit)&1 == 1; multi != (wantC > 1) {
					t.Fatalf("MultiMask slot %d lane %d = %v, toggles %d", slot, li, multi, wantC)
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

// TestStripedDifferentialScalar is the compiled engine's core contract:
// for all four delay models, every lane of every stripe is bit-identical
// to the scalar simulator on that lane's vector pair — across full
// stripes, partial trailing words, and narrowed stripe widths. CI runs
// the C880 subtree of this test under -race as the compiled-kernel
// differential step.
func TestStripedDifferentialScalar(t *testing.T) {
	models := []delay.Model{delay.Zero{}, delay.Unit{}, delay.FanoutLoaded{}, delay.StandardTable()}
	for _, name := range []string{"C432", "C880"} {
		c := bench.MustGenerate(name)
		for _, m := range models {
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				// 300 pairs = 5 blocks: one partial stripe at width 8
				// (aw = 5), the estimator's production shape.
				diffStriped(t, c, m, 8, 300, 7)
				// Width 2: multiple stripes with a ragged final word.
				diffStriped(t, c, m, 2, 200, 11)
			})
		}
	}
}

// TestStripedObserveDeadElimination checks compile-time dead-output
// elimination: observing a subset keeps exactly the transitive fan-in
// cone live, observed gates still match the scalar oracle bit for bit,
// and eliminated gates read zero through Toggles.
func TestStripedObserveDeadElimination(t *testing.T) {
	c := bench.MustGenerate("C432")
	m := delay.FanoutLoaded{}
	observe := []int{c.Outputs[0]}
	p := CompileModel(c, m, CompileOptions{Observe: observe})
	if p.LiveGates() >= c.NumGates() {
		t.Fatalf("observing one output kept all %d gates live", p.LiveGates())
	}
	live := make(map[int32]bool, p.LiveGates())
	for _, gid := range NewStriped(p).Run(packVectors(c.NumInputs(), [][]bool{make([]bool, c.NumInputs())}, [][]bool{make([]bool, c.NumInputs())}), 0).Gates {
		live[gid] = true
	}
	s := New(c, m)
	st := NewStriped(p)
	v1s := xorshiftVectors(70, c.NumInputs(), 3)
	v2s := xorshiftVectors(70, c.NumInputs(), 4)
	pp := packVectors(c.NumInputs(), v1s, v2s)
	var dst []int32
	r := st.Run(pp, 0)
	for l := 0; l < 70; l++ {
		want := s.RunCycle(v1s[l], v2s[l])
		dst = r.Toggles(l/64, l%64, dst)
		for g := range want.Toggles {
			if live[int32(g)] {
				if dst[g] != want.Toggles[g] {
					t.Fatalf("lane %d live gate %d: %d toggles, scalar %d", l, g, dst[g], want.Toggles[g])
				}
			} else if dst[g] != 0 {
				t.Fatalf("lane %d dead gate %d reads %d, want 0", l, g, dst[g])
			}
		}
	}
}

// TestStripedReuse runs one engine across rounds of different batch
// sizes (so the active word count changes run to run) and cross-checks
// each round against a fresh engine: calendar, pending, and toggle state
// must be fully self-cleaning, including across aw changes.
func TestStripedReuse(t *testing.T) {
	c := bench.MustGenerate("C432")
	m := delay.FanoutLoaded{}
	p := CompileModel(c, m, CompileOptions{})
	st := NewStriped(p)
	// The lane sequence walks active word counts 5→1→8→7→8→1→3: every
	// reshape direction, including the adjacent 8→7 narrowing whose stale
	// pending-value aliasing once swallowed transitions (each run is
	// checked against a fresh engine, so any cross-shape residue shows).
	for round, lanes := range []int{300, 64, 512, 416, 500, 1, 130} {
		v1s := xorshiftVectors(lanes, c.NumInputs(), 100+uint64(round))
		v2s := xorshiftVectors(lanes, c.NumInputs(), 200+uint64(round))
		pp := packVectors(c.NumInputs(), v1s, v2s)
		got := st.Run(pp, 0)
		want := NewStriped(p).Run(pp, 0)
		if got.AW != want.AW {
			t.Fatalf("round %d: AW %d vs %d", round, got.AW, want.AW)
		}
		for i := range want.Any {
			if got.Any[i] != want.Any[i] {
				t.Fatalf("round %d: reused engine diverged at Any[%d]", round, i)
			}
		}
		for l := 0; l < got.AW*64; l++ {
			if got.Events[l] != want.Events[l] || got.SettleTime[l] != want.SettleTime[l] {
				t.Fatalf("round %d lane %d: events %d/%d settle %d/%d",
					round, l, got.Events[l], want.Events[l], got.SettleTime[l], want.SettleTime[l])
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
// TestResultCopyToggles): StripedResult.Any is engine-owned and
// rewritten by the next Run, while Toggles copies into a caller-owned
// slice that survives.
func TestStripedResultAliasing(t *testing.T) {
	c := bench.MustGenerate("C432")
	p := CompileModel(c, delay.FanoutLoaded{}, CompileOptions{})
	st := NewStriped(p)
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
	// A quiet cycle (v1 == v2) rewrites the engine-owned buffers to zero.
	if r2 := st.Run(packVectors(c.NumInputs(), v1s, v1s), 0); r2.Events[0] != 0 {
		t.Fatalf("expected quiet cycle, got %d events", r2.Events[0])
	}
	// The held reference now reads all-zero: the same backing array was
	// rewritten in place — the documented hazard the contract warns about.
	for _, w := range aliasedAny {
		if w != 0 {
			t.Fatal("quiet run left engine-owned Any bits set — the aliasing contract is stale")
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
// run once the toggle planes have grown to the circuit's depth.
func TestStripedAllocFree(t *testing.T) {
	c := bench.MustGenerate("C432")
	p := CompileModel(c, delay.FanoutLoaded{}, CompileOptions{})
	st := NewStriped(p)
	st.LaneStats = false
	v1s := xorshiftVectors(300, c.NumInputs(), 31)
	v2s := xorshiftVectors(300, c.NumInputs(), 32)
	pp := packVectors(c.NumInputs(), v1s, v2s)
	st.Run(pp, 0)
	st.Run(pp, 0)
	if allocs := testing.AllocsPerRun(10, func() { st.Run(pp, 0) }); allocs != 0 {
		t.Fatalf("striped Run allocates %.1f/op in steady state, want 0", allocs)
	}
}

// TestStripedZeroDelayEngine exercises the compiled zero-delay kernel's
// glitch-free contract directly: counts are 0/1 and MultiMask is empty.
func TestStripedZeroDelayEngine(t *testing.T) {
	c := bench.MustGenerate("C432")
	p := CompileModel(c, delay.Zero{}, CompileOptions{})
	if !p.ZeroDelay() {
		t.Fatal("zero model did not compile to the zero-delay kernel")
	}
	st := NewStriped(p)
	v1s := xorshiftVectors(100, c.NumInputs(), 41)
	v2s := xorshiftVectors(100, c.NumInputs(), 42)
	r := st.Run(packVectors(c.NumInputs(), v1s, v2s), 0)
	for s := 0; s < r.NSlots; s++ {
		for w := 0; w < r.AW; w++ {
			if r.MultiMask(s, w) != 0 {
				t.Fatalf("zero-delay MultiMask(%d,%d) nonzero", s, w)
			}
			for l := 0; l < 64; l++ {
				if n := r.Count(s, w, l); n > 1 {
					t.Fatalf("zero-delay Count(%d,%d,%d) = %d", s, w, l, n)
				}
			}
		}
	}
}

// TestNewStripedResultMatchesRun: a result built from a run's per-lane
// counts must read back exactly like the run's own — Any, Multi,
// CountPlanes and every Count — on every delay model, with counts deep
// enough (C6288, unit delay) to reach the overflow planes.
func TestNewStripedResultMatchesRun(t *testing.T) {
	c := bench.MustGenerate("C6288")
	v1s := xorshiftVectors(300, c.NumInputs(), 7)
	v2s := xorshiftVectors(300, c.NumInputs(), 8)
	pp := packVectors(c.NumInputs(), v1s, v2s)
	for _, m := range []delay.Model{delay.Zero{}, delay.Unit{}, delay.FanoutLoaded{}, delay.StandardTable()} {
		r := NewStriped(CompileModel(c, m, CompileOptions{})).Run(pp, 0)
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
		got := NewStripedResult(r.AW, counts, r.Multi == nil)
		if got.NSlots != r.NSlots || got.AW != r.AW {
			t.Fatalf("%s: shape %d×%d, run %d×%d", m.Name(), got.NSlots, got.AW, r.NSlots, r.AW)
		}
		gb0, gov := got.CountPlanes()
		rb0, rov := r.CountPlanes()
		if (gb0 == nil) != (rb0 == nil) {
			t.Fatalf("%s: CountPlanes nil %v, run nil %v", m.Name(), gb0 == nil, rb0 == nil)
		}
		for i := 0; i < n; i++ {
			s, k := i/r.AW, i%r.AW
			if got.Any[i] != r.Any[i] || got.MultiMask(s, k) != r.MultiMask(s, k) {
				t.Fatalf("%s word %d: Any/Multi %x/%x, run %x/%x", m.Name(), i, got.Any[i], got.MultiMask(s, k), r.Any[i], r.MultiMask(s, k))
			}
			if rb0 != nil && (gb0[i] != rb0[i] || gov[i] != rov[i]) {
				t.Fatalf("%s word %d: b0/ov %x/%x, run %x/%x", m.Name(), i, gb0[i], gov[i], rb0[i], rov[i])
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
// scalar path and on both compiled executors, the Striped event wheel and
// the Speculative settle-then-patch engine, which must agree with the
// scalar result in every lane.
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
			// lane of both executors.
			const lanes = 300
			v1s := make([][]bool, lanes)
			v2s := make([][]bool, lanes)
			for l := range v1s {
				v1s[l], v2s[l] = tc.v1, tc.v2
			}
			pp := packVectors(c.NumInputs(), v1s, v2s)
			p := Compile(c, s.DelaysPS(), CompileOptions{})
			for _, ex := range []struct {
				name string
				run  func(*PackedPairs, int) *StripedResult
			}{
				{"striped", NewStriped(p).Run},
				{"speculative", NewSpeculative(p).Run},
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
					if r.Events[l] != tc.events || r.SettleTime[l] != tc.settle {
						t.Fatalf("%s lane %d: events %d settle %d, want %d/%d",
							ex.name, l, r.Events[l], r.SettleTime[l], tc.events, tc.settle)
					}
				}
			}
		})
	}
}

// TestStripedGCDNormalization checks that the timed kernel divides the
// delay GCD out of its calendar but reports settle times in ps, on both
// compiled executors.
func TestStripedGCDNormalization(t *testing.T) {
	c := chain(t, 3)
	p := CompileModel(c, delay.Unit{Delay: 100}, CompileOptions{})
	if p.GCDps() != 100 {
		t.Fatalf("GCDps = %d, want 100", p.GCDps())
	}
	pp := packVectors(1, [][]bool{{false}}, [][]bool{{true}})
	if r := NewStriped(p).Run(pp, 0); r.SettleTime[0] != 300 {
		t.Fatalf("striped settle = %d ps, want 300", r.SettleTime[0])
	}
	if r := NewSpeculative(p).Run(pp, 0); r.SettleTime[0] != 300 {
		t.Fatalf("speculative settle = %d ps, want 300", r.SettleTime[0])
	}
}
