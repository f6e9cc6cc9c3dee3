// Package power computes per-cycle power from the timing simulator's
// transition counts, substituting for the paper's transistor-level
// simulator (PowerMill). The model is the standard CMOS dynamic-power
// formulation: every output transition of gate g charges or discharges
// that node's load capacitance, so
//
//	E_cycle = ½ · Vdd² · Σ_{g: n_g>0} C_g · (1 + s·(n_g − 1)) · (1 + scFrac)
//	P_cycle = E_cycle / T_clk + P_leak
//
// with n_g the gate's toggles in the cycle, C_g built from the gate's
// intrinsic drain capacitance plus the input capacitance of each fanout
// (plus an output-pad load on primary outputs), s the GlitchSwing weight
// of every toggle after a gate's first, and scFrac an
// activity-proportional short-circuit adder. Absolute watts
// are not calibrated to the paper's 0.35 µm testbed — only the shape of
// the induced distribution matters to the estimator (see DESIGN.md).
//
// An Evaluator computes single pairs on the scalar sim.Simulator, the
// oracle, and packed batches on the circuit's compiled sim.Program run by
// the sim.Speculative executor, folding each stripe's toggle planes into
// energies in gate order. The two paths give bit-identical powers on
// every delay model.
package power

import (
	"fmt"
	"math"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Params sets the electrical constants of the model. The zero value is
// replaced by Defaults().
type Params struct {
	Vdd        float64 // supply voltage, volts
	ClockNS    float64 // clock period, nanoseconds
	IntrinsicF float64 // intrinsic drain capacitance per gate, femtofarads
	InputCapF  float64 // input capacitance per fan-in connection, fF
	WireCapF   float64 // wire capacitance per fanout branch, fF
	PadCapF    float64 // output pad load on primary outputs, fF
	SCFraction float64 // short-circuit energy as a fraction of dynamic
	LeakNW     float64 // leakage per gate, nanowatts
	// GlitchSwing scales the energy of glitch transitions, every toggle
	// of a gate after its first in a cycle: n toggles weigh
	// 1 + GlitchSwing·(n−1) full C·V² events. Narrow hazard pulses do not
	// swing the node across the full rail, so transistor-level
	// simulators such as PowerMill report them at a fraction of a full
	// event. 1 counts glitches at full swing, 0 selects the Defaults
	// value 0.1, and values above 1 clamp to 1.
	GlitchSwing float64
}

// Defaults returns 0.35 µm-era constants: 3.3 V supply, 100 MHz clock.
func Defaults() Params {
	return Params{
		Vdd:         3.3,
		ClockNS:     10,
		IntrinsicF:  4,
		InputCapF:   6,
		WireCapF:    2,
		PadCapF:     40,
		SCFraction:  0.12,
		LeakNW:      0.5,
		GlitchSwing: 0.1,
	}
}

// Validate reports whether NewEvaluator accepts p: the zero value, which
// selects Defaults, or constants that are all finite, with a positive
// supply voltage and clock period and no negative capacitance,
// short-circuit fraction, leakage or glitch swing. Anything else would
// give non-finite or meaningless powers.
func (p Params) Validate() error {
	if p == (Params{}) {
		return nil
	}
	for _, v := range [...]float64{p.Vdd, p.ClockNS, p.IntrinsicF, p.InputCapF,
		p.WireCapF, p.PadCapF, p.SCFraction, p.LeakNW, p.GlitchSwing} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("power: params must be finite, got %+v", p)
		}
	}
	if p.Vdd <= 0 || p.ClockNS <= 0 {
		return fmt.Errorf("power: Vdd and ClockNS must be positive (a zero Params selects the defaults), got Vdd %v, ClockNS %v", p.Vdd, p.ClockNS)
	}
	if p.IntrinsicF < 0 || p.InputCapF < 0 || p.WireCapF < 0 || p.PadCapF < 0 ||
		p.SCFraction < 0 || p.LeakNW < 0 || p.GlitchSwing < 0 {
		return fmt.Errorf("power: capacitances, SCFraction, LeakNW and GlitchSwing must not be negative, got %+v", p)
	}
	return nil
}

// kindCapScale makes complex gates heavier, echoing transistor counts.
var kindCapScale = map[netlist.Kind]float64{
	netlist.Not:  0.6,
	netlist.Buf:  0.8,
	netlist.And:  1.1,
	netlist.Nand: 1.0,
	netlist.Or:   1.1,
	netlist.Nor:  1.0,
	netlist.Xor:  1.7,
	netlist.Xnor: 1.7,
}

// NodeCapsF returns the load capacitance (fF) of every gate output node
// under the given parameters.
func NodeCapsF(c *netlist.Circuit, p Params) []float64 {
	if p == (Params{}) {
		p = Defaults()
	}
	caps := make([]float64, c.NumGates())
	counts := c.FanoutCounts()
	isOutput := make([]bool, c.NumGates())
	for _, o := range c.Outputs {
		isOutput[o] = true
	}
	for i, g := range c.Gates {
		scale := 1.0
		if s, ok := kindCapScale[g.Kind]; ok {
			scale = s
		}
		caps[i] = p.IntrinsicF*scale + p.WireCapF*float64(counts[i])
	}
	// Each fanout consumer adds its input capacitance to the driver node.
	for _, g := range c.Gates {
		scale := 1.0
		if s, ok := kindCapScale[g.Kind]; ok {
			scale = s
		}
		for _, f := range g.Fanin {
			caps[f] += p.InputCapF * scale
		}
	}
	for i := range caps {
		if isOutput[i] {
			caps[i] += p.PadCapF
		}
	}
	return caps
}

// Evaluator computes cycle power for vector pairs on one circuit. The
// scalar entry points run the event-driven Simulator; the packed batch
// entry points run the circuit's compiled Program on the speculative
// settle-then-patch executor, whose powers are bit-identical to the
// scalar ones. An Evaluator is not safe for concurrent use; Clone gives
// each worker an independent instance.
type Evaluator struct {
	simulator *sim.Simulator
	params    Params
	// energyW[g] = ½·Vdd²·C_g·(1+sc), in joules per toggle (C in farads).
	energyW []float64
	leakW   float64 // total leakage power, watts
	clockS  float64 // clock period, seconds
	glitch  float64 // per-extra-toggle energy scale (partial swing)

	// The compiled program is immutable and shared across clones and,
	// through the cache when one is attached, across evaluators for the
	// same (circuit, delay model). It is resolved on first batch use or
	// at the first Clone. slotEnergy is energyW in the program's slot
	// order, resolved and shared with it. acc (the stripe-sized energy
	// accumulator of stripeMW) and spec (the executor, which owns a
	// Striped for its settle kernel and misprediction fallback) are
	// per-instance run state, built lazily.
	kernels    *sim.ProgramCache
	kernelKey  string
	prog       *sim.Program
	slotEnergy []float64
	acc        []float64
	spec       *sim.Speculative
}

// NewEvaluator builds an evaluator for the circuit under a delay model and
// electrical parameters. Zero-valued params select Defaults(); nil model
// selects delay.FanoutLoaded{}. It panics on params Validate rejects, so
// callers taking them from users validate first.
func NewEvaluator(c *netlist.Circuit, m delay.Model, p Params) *Evaluator {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("power: invalid params %+v: %v", p, err))
	}
	if p == (Params{}) {
		p = Defaults()
	}
	caps := NodeCapsF(c, p)
	energy := make([]float64, len(caps))
	k := 0.5 * p.Vdd * p.Vdd * (1 + p.SCFraction) * 1e-15 // fF → F
	for i, cf := range caps {
		energy[i] = k * cf
	}
	glitch := p.GlitchSwing
	if glitch == 0 {
		glitch = Defaults().GlitchSwing
	}
	if glitch > 1 {
		glitch = 1
	}
	return &Evaluator{
		simulator: sim.New(c, m),
		params:    p,
		energyW:   energy,
		leakW:     p.LeakNW * 1e-9 * float64(c.NumLogicGates()),
		clockS:    p.ClockNS * 1e-9,
		glitch:    glitch,
	}
}

// Clone returns an independent evaluator sharing the immutable model data
// and the compiled program, which Clone resolves first so that every
// clone shares one program instead of compiling its own. The program is
// read-only and safe to run from many clones at once; each clone builds
// its own executor.
func (e *Evaluator) Clone() *Evaluator {
	e.program()
	return &Evaluator{
		simulator:  e.simulator.Clone(),
		params:     e.params,
		energyW:    e.energyW,
		leakW:      e.leakW,
		clockS:     e.clockS,
		glitch:     e.glitch,
		kernels:    e.kernels,
		kernelKey:  e.kernelKey,
		prog:       e.prog,
		slotEnergy: e.slotEnergy,
	}
}

// UseSpeculative attaches a program cache: the compile is deduplicated
// through cache under key (the service keys on circuit identity + delay
// model) instead of compiling privately, and a nil cache restores the
// private compile. Any program already resolved is dropped and resolved
// again on next use. Every evaluator runs the speculative executor
// whether or not a cache is attached, so results do not change.
func (e *Evaluator) UseSpeculative(cache *sim.ProgramCache, key string) {
	e.kernels = cache
	e.kernelKey = key
	e.prog = nil
	e.slotEnergy = nil
	e.spec = nil
}

// SpecStats returns this evaluator's cumulative speculation counters
// (zero before its first batch). Clones count independently; sum across
// a worker pool for run totals.
func (e *Evaluator) SpecStats() sim.SpecStats {
	if e.spec == nil {
		return sim.SpecStats{}
	}
	return e.spec.Stats()
}

// program resolves the compiled program, through the shared cache when
// one was provided, and the per-slot energies that go with it. Delays
// come from the simulator's own assignment, so the compiled kernel is
// oracle-exact by construction.
func (e *Evaluator) program() *sim.Program {
	if e.prog != nil {
		return e.prog
	}
	c := e.Circuit()
	opt := sim.CompileOptions{ZeroDelay: e.ZeroDelay()}
	delays := e.simulator.DelaysPS()
	if e.kernels == nil {
		e.prog = sim.Compile(c, delays, opt)
	} else {
		fp := sim.Fingerprint(c, delays, opt)
		e.prog = e.kernels.Get(e.kernelKey, fp, func() *sim.Program {
			return sim.Compile(c, delays, opt)
		})
	}
	gates := e.prog.SlotGates()
	e.slotEnergy = make([]float64, len(gates))
	for s, g := range gates {
		e.slotEnergy[s] = e.energyW[g]
	}
	return e.prog
}

// StripeWords returns the compiled program's stripe width in 64-lane
// words. Worker pools split packed batches at this granularity.
func (e *Evaluator) StripeWords() int { return e.program().StripeWords() }

// Circuit returns the evaluated circuit.
func (e *Evaluator) Circuit() *netlist.Circuit { return e.simulator.Circuit() }

// Params returns the electrical parameters in effect.
func (e *Evaluator) Params() Params { return e.params }

// CyclePowerW returns the cycle power in watts for the vector pair
// (v1, v2): settle at v1, apply v2, average dissipation over one clock.
func (e *Evaluator) CyclePowerW(v1, v2 []bool) float64 {
	// res.Toggles aliases simulator scratch; it is consumed before the
	// next RunCycle, so no defensive copy is needed.
	res := e.simulator.RunCycle(v1, v2)
	return e.energyOf(res.Toggles)/e.clockS + e.leakW
}

// energyOf converts per-gate toggle counts to joules: a gate's first
// transition is a full C·V² event, further transitions (hazard pulses)
// count at the partial GlitchSwing weight.
func (e *Evaluator) energyOf(toggles []int32) float64 {
	var energy float64
	for g, n := range toggles {
		if n == 0 {
			continue
		}
		eff := 1 + e.glitch*float64(n-1)
		energy += eff * e.energyW[g]
	}
	return energy
}

// CyclePowerMW returns CyclePowerW scaled to milliwatts, the unit of the
// paper's Table 2.
func (e *Evaluator) CyclePowerMW(v1, v2 []bool) float64 {
	return e.CyclePowerW(v1, v2) * 1e3
}

// ZeroDelay reports whether the evaluator's delay model is glitch-free
// (all gate delays zero), in which case the compiled program is the
// zero-delay settle kernel.
func (e *Evaluator) ZeroDelay() bool { return e.simulator.ZeroDelay() }

// BatchMWPacked evaluates a whole packed batch — any number of pairs, one
// compiled stripe at a time — into out (mW), which must be exactly pp.N
// long. This is the native entry point of the sampling pipeline: no
// [][]bool is materialized, no per-call transpose happens, and once the
// program is resolved and the executor warm the call performs zero heap
// allocations. Results are bit-identical to per-pair CyclePowerMW calls
// for every delay model. A batch whose width is not the circuit's input
// count is refused with an error.
func (e *Evaluator) BatchMWPacked(pp *sim.PackedPairs, out []float64) error {
	if len(out) != pp.N {
		return fmt.Errorf("power: %d power slots for %d packed pairs", len(out), pp.N)
	}
	sl := e.program().StripeLanes()
	for b0 := 0; b0 < pp.N; b0 += sl {
		end := min(b0+sl, pp.N)
		if err := e.PackedStripeMW(pp, b0/sl, out[b0:end]); err != nil {
			return err
		}
	}
	return nil
}

// PackedStripeMW evaluates one stripe — StripeWords 64-lane blocks — of
// the packed batch into out, which must cover exactly the stripe's lanes
// (shorter on the final partial stripe). It is the seam at which worker
// pools split batches; allocation-free in steady state and bit-identical
// per lane to the scalar oracle for every delay model. A batch whose
// width is not the circuit's input count is refused with an error.
func (e *Evaluator) PackedStripeMW(pp *sim.PackedPairs, stripe int, out []float64) error {
	if n := e.Circuit().NumInputs(); pp.Inputs != n {
		return fmt.Errorf("power: packed batch width %d, circuit has %d inputs", pp.Inputs, n)
	}
	p := e.program()
	sl := p.StripeLanes()
	lanes := min(pp.N-stripe*sl, sl)
	if stripe < 0 || lanes <= 0 || len(out) != lanes {
		return fmt.Errorf("power: %d power slots for stripe %d of %d packed pairs", len(out), stripe, pp.N)
	}
	if len(e.acc) < sl {
		e.acc = make([]float64, sl)
	}
	if e.spec == nil {
		e.spec = sim.NewSpeculative(p)
		// Cycle energy needs only the toggle planes: skip the per-lane
		// settle/event aggregation entirely.
		e.spec.LaneStats = false
	}
	e.stripeMW(e.spec.Run(pp, stripe), out)
	return nil
}

// stripeMW folds a striped result into lane powers (mW): the energy
// sums build up in the stripe-sized acc, through the AVX-512 kernels
// where the host has them and foldGo elsewhere (the two are
// bit-identical), and are scaled into out in one loop. Lanes past the
// batch never toggle (their planes are zero) and are simply not copied
// out.
func (e *Evaluator) stripeMW(r *sim.StripedResult, out []float64) {
	acc := e.acc[:r.AW*64]
	clear(acc)
	if haveAVX512 {
		e.foldAVX512(r, acc)
	} else {
		e.foldGo(r, acc)
	}
	for i := range out {
		out[i] = (acc[i]/e.clockS + e.leakW) * 1e3
	}
}

// CycleDetail returns cycle power (W) along with the simulator's settle
// time (ps) and event count, for callers that need more than power (the
// path-delay example uses SettleTime as its random variable).
func (e *Evaluator) CycleDetail(v1, v2 []bool) (powerW float64, settlePS int64, events int) {
	res := e.simulator.RunCycle(v1, v2)
	return e.energyOf(res.Toggles)/e.clockS + e.leakW, res.SettleTime, res.Events
}
