package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/netlist"
)

// chain builds a linear inverter chain of depth n: out = NOT^n(a).
func chain(t *testing.T, n int) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("chain")
	prev := b.Input("a")
	for i := 0; i < n; i++ {
		prev = b.Not(prev)
	}
	b.Output(prev)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// glitchCircuit builds the canonical static-hazard circuit
// y = AND(a, NOT(a)) with asymmetric path delays, which produces a glitch
// on a rising a under a timed model and no glitch under zero delay.
func glitchCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("hazard")
	a := b.Input("a")
	na := b.Gate(netlist.Not, "na", a)
	y := b.Gate(netlist.And, "y", a, na)
	b.Output(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSettle(t *testing.T) {
	c := chain(t, 3)
	s := New(c, delay.Zero{})
	v := s.Settle([]bool{true})
	// out = NOT(NOT(NOT(true))) = false.
	if v[c.Outputs[0]] != false {
		t.Error("settle value wrong")
	}
	v = s.Settle([]bool{false})
	if v[c.Outputs[0]] != true {
		t.Error("settle value wrong for false")
	}
}

func TestZeroDelayTogglesOncePerChangedNet(t *testing.T) {
	c := chain(t, 5)
	s := New(c, delay.Zero{})
	if !s.ZeroDelay() {
		t.Fatal("expected zero-delay mode")
	}
	res := s.RunCycle([]bool{false}, []bool{true})
	// Input + all 5 inverters toggle exactly once.
	total := 0
	for _, n := range res.Toggles {
		if n != 1 {
			t.Errorf("toggle count %d, want 1 everywhere", n)
		}
		total += int(n)
	}
	if total != 6 || res.Events != 6 {
		t.Errorf("events = %d, total toggles = %d", res.Events, total)
	}
	if res.SettleTime != 0 {
		t.Errorf("zero mode settle time = %d", res.SettleTime)
	}
}

func TestNoActivityNoToggles(t *testing.T) {
	c := chain(t, 4)
	for _, m := range []delay.Model{delay.Zero{}, delay.Unit{}, delay.FanoutLoaded{}} {
		s := New(c, m)
		res := s.RunCycle([]bool{true}, []bool{true})
		if res.Events != 0 || res.SettleTime != 0 {
			t.Errorf("%s: idle cycle has %d events", m.Name(), res.Events)
		}
	}
}

func TestTimedChainPropagation(t *testing.T) {
	c := chain(t, 4)
	s := New(c, delay.Unit{Delay: 10})
	res := s.RunCycle([]bool{false}, []bool{true})
	if res.Events != 5 {
		t.Errorf("events = %d, want 5", res.Events)
	}
	if res.SettleTime != 40 {
		t.Errorf("settle time = %d, want 40 (4 gates × 10ps)", res.SettleTime)
	}
}

func TestStaticHazardGlitchCounted(t *testing.T) {
	c := glitchCircuit(t)
	// Under unit delay, a rising edge on a makes y pulse high for one gate
	// delay: AND sees (a=1, na=1) until the inverter catches up.
	s := New(c, delay.Unit{Delay: 10})
	res := s.RunCycle([]bool{false}, []bool{true})
	y := c.GateIndex("y")
	if res.Toggles[y] != 2 {
		t.Errorf("hazard toggles = %d, want 2 (up and back down)", res.Toggles[y])
	}
	// Zero-delay mode sees no glitch: steady state is 0 in both vectors.
	s0 := New(c, delay.Zero{})
	res0 := s0.RunCycle([]bool{false}, []bool{true})
	if res0.Toggles[y] != 0 {
		t.Errorf("zero-delay hazard toggles = %d, want 0", res0.Toggles[y])
	}
}

func TestInertialFilteringSwallowsShortPulse(t *testing.T) {
	// Hazard feeding a very slow gate: the glitch pulse (10 ps) is shorter
	// than the follower's delay, so the follower must not toggle at all.
	b := netlist.NewBuilder("inertia")
	a := b.Input("a")
	na := b.Gate(netlist.Not, "na", a)
	y := b.Gate(netlist.And, "y", a, na)
	slow := b.Gate(netlist.Buf, "slow", y)
	b.Output(slow)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tab := delay.Table{
		Delays: map[netlist.Kind]int64{
			netlist.Not: 10,
			netlist.And: 10,
			netlist.Buf: 500, // much longer than the 10 ps pulse
		},
	}
	s := New(c, tab)
	res := s.RunCycle([]bool{false}, []bool{true})
	if res.Toggles[c.GateIndex("y")] != 2 {
		t.Fatalf("glitch not generated: %d", res.Toggles[c.GateIndex("y")])
	}
	if res.Toggles[c.GateIndex("slow")] != 0 {
		t.Errorf("slow buffer toggled %d times; inertial filter failed", res.Toggles[c.GateIndex("slow")])
	}
}

func TestTimedFinalStateMatchesSettle(t *testing.T) {
	// Property: after the event queue drains, every gate's value equals the
	// zero-delay steady state of v2 — glitches differ, final state cannot.
	c := bench.MustGenerate("C432")
	s := New(c, delay.FanoutLoaded{})
	ref := New(c, delay.Zero{})
	nIn := c.NumInputs()

	if err := quick.Check(func(seed1, seed2 uint64) bool {
		v1 := patternFromSeed(seed1, nIn)
		v2 := patternFromSeed(seed2, nIn)
		s.RunCycle(v1, v2)
		want := ref.Settle(v2)
		for i := range want {
			if s.values[i] != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTimedTogglesAtLeastZeroDelay(t *testing.T) {
	// Property: with glitches the timed toggle count per gate is ≥ the
	// zero-delay count (each net still ends at the same final value, and
	// parity matches: an even number of extra transitions).
	c := bench.MustGenerate("C880")
	timed := New(c, delay.FanoutLoaded{})
	zero := New(c, delay.Zero{})
	nIn := c.NumInputs()

	if err := quick.Check(func(seed1, seed2 uint64) bool {
		v1 := patternFromSeed(seed1, nIn)
		v2 := patternFromSeed(seed2, nIn)
		rt := timed.RunCycle(v1, v2)
		timedToggles := append([]int32(nil), rt.Toggles...)
		rz := zero.RunCycle(v1, v2)
		for i := range timedToggles {
			if timedToggles[i] < rz.Toggles[i] {
				return false
			}
			if (timedToggles[i]-rz.Toggles[i])%2 != 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func patternFromSeed(seed uint64, n int) []bool {
	v := make([]bool, n)
	x := seed
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x += 0x9e3779b97f4a7c15
		v[i] = x&1 != 0
	}
	return v
}

func TestCloneIndependence(t *testing.T) {
	c := chain(t, 3)
	s := New(c, delay.Unit{})
	s2 := s.Clone()
	r1 := s.RunCycle([]bool{false}, []bool{true})
	ev1 := r1.Events
	r2 := s2.RunCycle([]bool{true}, []bool{true})
	if r2.Events != 0 {
		t.Error("clone saw activity from an idle pair")
	}
	// Original result buffers must be unaffected by clone use.
	r1b := s.RunCycle([]bool{false}, []bool{true})
	if r1b.Events != ev1 {
		t.Error("clone interfered with original")
	}
}

func TestRunCyclePanicsOnBadWidth(t *testing.T) {
	c := chain(t, 2)
	s := New(c, delay.Zero{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.RunCycle([]bool{true, false}, []bool{true, false})
}

func TestXorGlitchCascade(t *testing.T) {
	// Two inputs switching at t=0 through unequal-depth paths into an XOR
	// make the XOR toggle twice (once per arriving edge) before settling
	// back. Checks multi-input event ordering.
	b := netlist.NewBuilder("xg")
	a := b.Input("a")
	x := b.Input("x")
	buf1 := b.Buf(a)
	buf2 := b.Buf(buf1) // a path: 2 units
	y := b.Gate(netlist.Xor, "y", buf2, x)
	b.Output(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(c, delay.Unit{Delay: 10})
	// a: 0→1 (arrives at XOR at t=30), x: 0→1 (arrives at t=10).
	res := s.RunCycle([]bool{false, false}, []bool{true, true})
	yIdx := c.GateIndex("y")
	if res.Toggles[yIdx] != 2 {
		t.Errorf("xor toggles = %d, want 2", res.Toggles[yIdx])
	}
	if res.SettleTime != 30 {
		t.Errorf("settle = %d, want 30", res.SettleTime)
	}
}

func BenchmarkRunCycleC6288Fanout(b *testing.B) {
	c := bench.MustGenerate("C6288")
	s := New(c, delay.FanoutLoaded{})
	v1 := patternFromSeed(1, c.NumInputs())
	v2 := patternFromSeed(2, c.NumInputs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunCycle(v1, v2)
	}
}

func BenchmarkRunCycleC6288Zero(b *testing.B) {
	c := bench.MustGenerate("C6288")
	s := New(c, delay.Zero{})
	v1 := patternFromSeed(1, c.NumInputs())
	v2 := patternFromSeed(2, c.NumInputs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunCycle(v1, v2)
	}
}

// xorshiftVectors builds deterministic pseudo-random input vectors.
func xorshiftVectors(n, width int, seed uint64) [][]bool {
	out := make([][]bool, n)
	x := seed*2862933555777941757 + 3037000493
	for i := range out {
		v := make([]bool, width)
		for j := range v {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v[j] = x&1 != 0
		}
		out[i] = v
	}
	return out
}

// fixedDelays is a test delay model with explicit per-gate delays, for
// constructing exact inertial scenarios.
type fixedDelays []int64

func (fixedDelays) Name() string                        { return "fixed" }
func (d fixedDelays) Assign(c *netlist.Circuit) []int64 { return append([]int64(nil), d...) }

// hazardCircuit builds y = AND(a, NOT(a)): a rising a creates a pulse at
// y's inputs that is notDelay long; whether y glitches depends on whether
// the pulse survives y's inertial delay.
func hazardCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("hazard")
	a := b.Input("a")
	na := b.Gate(netlist.Not, "na", a)
	y := b.Gate(netlist.And, "y", a, na)
	b.Output(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestResultCopyToggles is the regression test for the Result.Toggles
// aliasing hazard: the slice returned by RunCycle is simulator-owned and
// rewritten by the next cycle; CopyToggles must produce a stable snapshot.
func TestResultCopyToggles(t *testing.T) {
	c := chain(t, 4)
	s := New(c, delay.Unit{})
	res := s.RunCycle([]bool{false}, []bool{true})
	snap := res.CopyToggles(nil)
	aliased := res.Toggles
	// A quiet cycle rewrites the shared buffer to all zeros.
	if r2 := s.RunCycle([]bool{true}, []bool{true}); r2.Events != 0 {
		t.Fatalf("expected quiet cycle, got %d events", r2.Events)
	}
	sawOverwrite := false
	for g := range snap {
		if snap[g] != 1 { // every gate of the inverter chain toggles once
			t.Fatalf("snapshot gate %d = %d, want 1", g, snap[g])
		}
		if aliased[g] != snap[g] {
			sawOverwrite = true
		}
	}
	if !sawOverwrite {
		t.Fatal("Result.Toggles did not alias simulator scratch — the CopyToggles contract is stale")
	}
	// Reusing a big-enough dst must not allocate a new backing array.
	dst := make([]int32, 0, c.NumGates())
	out := s.RunCycle([]bool{true}, []bool{false}).CopyToggles(dst)
	if &out[0] != &dst[:1][0] {
		t.Fatal("CopyToggles ignored reusable dst")
	}
}
