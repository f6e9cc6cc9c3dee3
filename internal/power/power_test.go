package power

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func invChain(t *testing.T, n int) *netlist.Circuit {
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

func TestDefaultsSane(t *testing.T) {
	p := Defaults()
	if p.Vdd <= 0 || p.ClockNS <= 0 || p.IntrinsicF <= 0 || p.InputCapF <= 0 {
		t.Fatalf("defaults broken: %+v", p)
	}
}

func TestNodeCaps(t *testing.T) {
	c := invChain(t, 2)
	p := Defaults()
	caps := NodeCapsF(c, p)
	if len(caps) != c.NumGates() {
		t.Fatalf("caps length %d", len(caps))
	}
	for i, cf := range caps {
		if cf <= 0 {
			t.Errorf("cap[%d] = %v", i, cf)
		}
	}
	// The output gate carries the pad load, so it must be heavier than an
	// identical inverter mid-chain driving one inverter input.
	out := c.Outputs[0]
	mid := c.Gates[out].Fanin[0]
	if caps[out] <= caps[mid]-p.InputCapF*kindCapScale[netlist.Not] {
		t.Errorf("pad load missing: out %v mid %v", caps[out], caps[mid])
	}
	// Zero params select defaults.
	caps2 := NodeCapsF(c, Params{})
	for i := range caps {
		if caps[i] != caps2[i] {
			t.Fatal("zero params did not select defaults")
		}
	}
}

func TestCyclePowerIdleIsLeakage(t *testing.T) {
	c := invChain(t, 4)
	e := NewEvaluator(c, delay.FanoutLoaded{}, Params{})
	v := []bool{true}
	got := e.CyclePowerW(v, v)
	wantLeak := Defaults().LeakNW * 1e-9 * float64(c.NumLogicGates())
	if math.Abs(got-wantLeak) > 1e-18 {
		t.Errorf("idle power = %v, want leakage %v", got, wantLeak)
	}
}

func TestCyclePowerHandComputed(t *testing.T) {
	// Single inverter, unit delay, no short-circuit or leakage: one input
	// toggle + one gate toggle.
	b := netlist.NewBuilder("one")
	a := b.Input("a")
	y := b.Gate(netlist.Not, "y", a)
	b.Output(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := Params{
		Vdd: 2, ClockNS: 1, IntrinsicF: 10, InputCapF: 5, WireCapF: 0,
		PadCapF: 20, SCFraction: 0, LeakNW: 0,
	}
	e := NewEvaluator(c, delay.Unit{}, p)
	// Node caps: input a: intrinsic 10·1.0 (Input has no kind scale entry
	// → 1.0) + 5·0.6 (inverter input cap) = 13; gate y: 10·0.6 + 20 = 26.
	// E = ½·4·(13+26) fF = 2·39 fJ = 78 fJ; P = 78 fJ / 1 ns = 78 µW.
	got := e.CyclePowerW([]bool{false}, []bool{true})
	want := 78e-6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("power = %v W, want %v W", got, want)
	}
	if mw := e.CyclePowerMW([]bool{false}, []bool{true}); math.Abs(mw-want*1e3) > 1e-9 {
		t.Errorf("mW conversion = %v", mw)
	}
}

func TestGlitchesIncreasePower(t *testing.T) {
	// The same vector pair must never dissipate less under a timed model
	// than under zero delay (glitch power is non-negative).
	c := bench.MustGenerate("C880")
	timed := NewEvaluator(c, delay.FanoutLoaded{}, Params{})
	zero := NewEvaluator(c, delay.Zero{}, Params{})
	nIn := c.NumInputs()
	seedPattern := func(seed uint64) []bool {
		v := make([]bool, nIn)
		x := seed
		for i := range v {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v[i] = x&1 != 0
		}
		return v
	}
	glitchier := 0
	for s := uint64(0); s < 50; s++ {
		v1 := seedPattern(s*2 + 1)
		v2 := seedPattern(s*2 + 2)
		pt := timed.CyclePowerW(v1, v2)
		pz := zero.CyclePowerW(v1, v2)
		if pt < pz-1e-15 {
			t.Fatalf("timed power %v < zero-delay %v", pt, pz)
		}
		if pt > pz+1e-15 {
			glitchier++
		}
	}
	if glitchier == 0 {
		t.Error("no vector pair produced glitch power; simulator suspicious")
	}
}

func TestCloneMatchesOriginal(t *testing.T) {
	c := bench.MustGenerate("C432")
	e := NewEvaluator(c, delay.FanoutLoaded{}, Params{})
	e2 := e.Clone()
	v1 := make([]bool, c.NumInputs())
	v2 := make([]bool, c.NumInputs())
	for i := range v2 {
		v2[i] = i%3 == 0
	}
	if p1, p2 := e.CyclePowerW(v1, v2), e2.CyclePowerW(v1, v2); p1 != p2 {
		t.Errorf("clone power %v != original %v", p2, p1)
	}
}

func TestCycleDetail(t *testing.T) {
	c := invChain(t, 3)
	e := NewEvaluator(c, delay.Unit{Delay: 10}, Params{})
	pw, settle, events := e.CycleDetail([]bool{false}, []bool{true})
	if events != 4 {
		t.Errorf("events = %d", events)
	}
	if settle != 30 {
		t.Errorf("settle = %d", settle)
	}
	if pw <= 0 {
		t.Errorf("power = %v", pw)
	}
	if pw != e.CyclePowerW([]bool{false}, []bool{true}) {
		t.Error("CycleDetail power differs from CyclePowerW")
	}
}

func TestNewEvaluatorPanicsOnBadParams(t *testing.T) {
	c := invChain(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEvaluator(c, nil, Params{Vdd: -1, ClockNS: 10})
}

func TestParamsValidate(t *testing.T) {
	ok := []Params{{}, Defaults(), {Vdd: 1, ClockNS: 1}, {Vdd: 1, ClockNS: 1, GlitchSwing: 7}}
	for i, p := range ok {
		if err := p.Validate(); err != nil {
			t.Errorf("params %d rejected: %v", i, err)
		}
	}
	// GlitchSwing 0 selects the default weight, and values above 1 clamp.
	c := invChain(t, 3)
	for _, tc := range []struct{ swing, want float64 }{{0, Defaults().GlitchSwing}, {7, 1}, {0.5, 0.5}} {
		p := Defaults()
		p.GlitchSwing = tc.swing
		if got := NewEvaluator(c, delay.Unit{}, p).glitch; got != tc.want {
			t.Errorf("GlitchSwing %v: weight %v, want %v", tc.swing, got, tc.want)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	withGlitch := Defaults()
	withGlitch.GlitchSwing = nan
	withLeak := Defaults()
	withLeak.LeakNW = -inf
	bad := []Params{
		{Vdd: 3.3},                // partial: ClockNS stays 0
		{Vdd: -1, ClockNS: 10},    //
		{Vdd: nan, ClockNS: 10},   //
		{Vdd: 3.3, ClockNS: inf},  //
		{Vdd: 3.3, ClockNS: -inf}, //
		withGlitch,
		withLeak,
	}
	// Negative capacitances, short-circuit fraction, leakage or glitch
	// swing give negative energies: C432 with IntrinsicF -60 and LeakNW -5
	// had a negative TrueMax and an estimator that never converged.
	for _, set := range []func(*Params){
		func(p *Params) { p.IntrinsicF = -60 },
		func(p *Params) { p.InputCapF = -1 },
		func(p *Params) { p.WireCapF = -0.5 },
		func(p *Params) { p.PadCapF = -40 },
		func(p *Params) { p.SCFraction = -2 },
		func(p *Params) { p.LeakNW = -5 },
		func(p *Params) { p.GlitchSwing = -3 },
		func(p *Params) { p.GlitchSwing = -5e-324 },
		// Above maxCapF a circuit's loads could sum to +Inf, with no
		// quantum to express them in.
		func(p *Params) { p.PadCapF = 2e12 },
	} {
		p := Defaults()
		set(&p)
		bad = append(bad, p)
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %d accepted: %+v", i, p)
		} else if !strings.HasPrefix(err.Error(), "power: ") {
			t.Errorf("params %d: error %q lacks the package prefix", i, err)
		}
	}
}

// TestQuantize checks the integer weights every power path sums. Under
// Defaults each ISCAS load is a whole number of 0.2-fF quanta. Loads on
// a finer grid take the coarsest quantum they are whole on. Loads whose
// weights would sum past maxLaneSum, here with 1.6e9-fF pads, take a
// coarser quantum instead of wrapping: each weight is its load rounded
// once and the weights sum within the bound. A timed stripe then still
// folds to CyclePowerMW's bits, though its glitching pads take some
// lanes' N past int32.
func TestQuantize(t *testing.T) {
	check := func(what string, c *netlist.Circuit, p Params, wantQuantum float64, exact bool) *Evaluator {
		t.Helper()
		caps := NodeCapsF(c, p)
		quantumF, weights := quantize(caps)
		if quantumF != wantQuantum {
			t.Fatalf("%s: quantum %v fF, want %v", what, quantumF, wantQuantum)
		}
		var sum int64
		for g, w := range weights {
			sum += int64(w)
			off := math.Abs(float64(w) - caps[g]/quantumF)
			if off > 0.5 || exact && off > 1e-9*caps[g]/quantumF {
				t.Fatalf("%s: gate %d load %v fF is %d quanta of %v fF", what, g, caps[g], w, quantumF)
			}
		}
		if sum > maxLaneSum {
			t.Fatalf("%s: weights sum to %d, past the int32 lanes' %d", what, sum, maxLaneSum)
		}
		t.Logf("%s: %v-fF quanta, weights sum to %d", what, quantumF, sum)
		return NewEvaluator(c, delay.FanoutLoaded{}, p)
	}
	for _, name := range bench.Names() {
		check(name, bench.MustGenerate(name), Defaults(), 0.2, true)
	}
	c := bench.MustGenerate("C880")
	fine := Defaults()
	fine.IntrinsicF, fine.PadCapF = 4.1, 40.1 // 1.1 × 4.1 = 4.51 fF
	check("C880 on a 0.01-fF grid", c, fine, 0.002, true)
	huge := Defaults()
	huge.PadCapF = 1.6e9
	e := check("C880 with 1.6e9-fF pads", c, huge, 20, false)
	const n = 300
	var pp sim.PackedPairs
	pp.Reset(c.NumInputs(), n)
	v1s, v2s := make([][]bool, n), make([][]bool, n)
	for i := range v1s {
		v1s[i], v2s[i] = kernelPattern(c.NumInputs(), uint64(5*i+1)), kernelPattern(c.NumInputs(), uint64(5*i+3))
		pp.SetPair(i, v1s[i], v2s[i])
	}
	out := make([]float64, n)
	if err := e.BatchMWPacked(&pp, out); err != nil {
		t.Fatal(err)
	}
	var maxN int64
	for i, p := range out {
		if want := e.CyclePowerMW(v1s[i], v2s[i]); math.Float64bits(p) != math.Float64bits(want) {
			t.Fatalf("pair %d: BatchMWPacked %v, CyclePowerMW %v", i, p, want)
		}
		var n int64
		for g, k := range e.simulator.RunCycle(v1s[i], v2s[i]).Toggles {
			n += int64(e.weights[g]) * int64(k)
		}
		maxN = max(maxN, n)
	}
	if maxN <= maxLaneSum {
		t.Fatalf("largest N %d: no lane passed int32", maxN)
	}
}

func TestPowerDeterministic(t *testing.T) {
	c := bench.MustGenerate("C1355")
	e := NewEvaluator(c, delay.FanoutLoaded{}, Params{})
	v1 := make([]bool, c.NumInputs())
	v2 := make([]bool, c.NumInputs())
	for i := range v2 {
		v2[i] = i%2 == 0
	}
	p1 := e.CyclePowerW(v1, v2)
	for i := 0; i < 5; i++ {
		if p := e.CyclePowerW(v1, v2); p != p1 {
			t.Fatalf("run %d power %v != %v", i, p, p1)
		}
	}
}
