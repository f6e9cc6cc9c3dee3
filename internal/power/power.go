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
// Each gate's load is a whole number q_g of capacitance quanta
// (quantize), so a cycle's energy is one quantum's times
// A + s·(N − A), with A = Σ q_g over the gates that toggled and
// N = Σ q_g·n_g: two exact integers, whatever order they are summed in.
//
// An Evaluator computes single pairs on the scalar sim.Simulator, the
// oracle, and packed batches on the circuit's compiled sim.Program run by
// the sim.Speculative executor, folding each stripe's toggle planes into
// A and N in integer lanes. Both paths, and the BDD oracle
// ExactZeroDelayMaxMW, turn the two integers into mW through one formula,
// so they give bit-identical powers on every delay model.
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

// maxCapF bounds each capacitance constant (fF), far above any real
// node, so that every load and the sum of every circuit's loads are
// finite and quantize can always find a quantum that fits them.
const maxCapF = 1e12

// Validate reports whether NewEvaluator accepts p: the zero value, which
// selects Defaults, or constants that are all finite, with a positive
// supply voltage and clock period, capacitances from 0 to maxCapF and no
// negative short-circuit fraction, leakage or glitch swing. Anything
// else would give non-finite or meaningless powers.
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
	if max(p.IntrinsicF, p.InputCapF, p.WireCapF, p.PadCapF) > maxCapF {
		return fmt.Errorf("power: capacitances must be at most %g fF, got %+v", float64(maxCapF), p)
	}
	return nil
}

// maxLaneSum bounds the sum of a circuit's weights, the most any lane of
// a fold can reach: the AVX-512 kernel adds in int32 lanes.
const maxLaneSum = math.MaxInt32

// quantize expresses every load in whole quanta of quantumF fF, the
// integer weights all power paths sum. The quantum is 0.2·10⁻ʲ fF for the
// smallest j ≥ 0 at which every load is whole (to 1e-9 relative), so the
// weights are exact: under Defaults, j = 0 on every ISCAS circuit. Loads
// that are whole on no quantum up to 0.2·10⁻¹² fF, or whose exact weights
// would sum past maxLaneSum, round once to the finest quantum whose
// weights fit, which is coarser than 0.2 fF only when even those
// overflow; DESIGN.md §15 records what that rounding moves.
func quantize(caps []float64) (quantumF float64, weights []int32) {
	quantum := func(j int) float64 {
		if j < 0 {
			return 0.2 * math.Pow10(-j)
		}
		return 2 / math.Pow10(j+1)
	}
	whole := func(j int) bool {
		for _, c := range caps {
			n := c / quantum(j)
			if math.Abs(n-math.Round(n)) > 1e-9*n {
				return false
			}
		}
		return true
	}
	fits := func(j int) bool {
		var sum float64
		for _, c := range caps {
			sum += math.Round(c / quantum(j))
		}
		return sum <= maxLaneSum
	}
	j := 0
	for j < 12 && !whole(j) && fits(j+1) {
		j++
	}
	for !fits(j) {
		j--
	}
	weights = make([]int32, len(caps))
	for g, c := range caps {
		weights[g] = int32(math.Round(c / quantum(j)))
	}
	return quantum(j), weights
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
	weights   []int32 // weights[g]: gate g's load in quanta (quantize)
	unitW     float64 // ½·Vdd²·quantum·(1+sc) per clock period, watts
	leakW     float64 // total leakage power, watts
	glitch    float64 // per-extra-toggle energy scale (partial swing)

	// The compiled program is immutable and shared across clones and,
	// through the cache when one is attached, across evaluators for the
	// same (circuit, delay model). It is resolved on first batch use or
	// at the first Clone; its slot s is gate s, so the folds read weights
	// directly. acc and n (stripeMW's lane sums) and spec (the executor)
	// are per-instance run state, built lazily.
	kernels   *sim.ProgramCache
	kernelKey string
	prog      *sim.Program
	acc       []int32
	n         []int64
	spec      *sim.Speculative
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
	quantumF, weights := quantize(NodeCapsF(c, p))
	glitch := p.GlitchSwing
	if glitch == 0 {
		glitch = Defaults().GlitchSwing
	}
	if glitch > 1 {
		glitch = 1
	}
	return &Evaluator{
		simulator: sim.New(c, m),
		weights:   weights,
		unitW:     0.5 * p.Vdd * p.Vdd * quantumF * 1e-15 * (1 + p.SCFraction) / (p.ClockNS * 1e-9),
		leakW:     p.LeakNW * 1e-9 * float64(c.NumLogicGates()),
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
		simulator: e.simulator.Clone(),
		weights:   e.weights,
		unitW:     e.unitW,
		leakW:     e.leakW,
		glitch:    e.glitch,
		kernels:   e.kernels,
		kernelKey: e.kernelKey,
		prog:      e.prog,
	}
}

// UseSpeculative attaches a program cache: the compile is deduplicated
// through cache under key (the service keys on circuit identity + delay
// model) instead of compiling privately, and a nil cache restores the
// private compile. Any program already resolved is dropped and resolved
// again on next use. Every evaluator runs the speculative executor
// whether or not a cache is attached, so results do not change.
//
// Deprecated: the name predates the one packed executor; the method
// only attaches a program cache. It keeps its name until its callers
// move off it (ROADMAP item 9).
func (e *Evaluator) UseSpeculative(cache *sim.ProgramCache, key string) {
	e.kernels = cache
	e.kernelKey = key
	e.prog = nil
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
// one was provided. Delays come from the simulator's own assignment, so
// the compiled kernel is oracle-exact by construction.
func (e *Evaluator) program() *sim.Program {
	if e.prog != nil {
		return e.prog
	}
	c := e.Circuit()
	delays := e.simulator.DelaysPS()
	if e.kernels == nil {
		e.prog = sim.Compile(c, delays)
	} else {
		e.prog = e.kernels.Get(e.kernelKey, sim.Fingerprint(c, delays), func() *sim.Program {
			return sim.Compile(c, delays)
		})
	}
	return e.prog
}

// StripeWords returns the compiled program's stripe width in 64-lane
// words. Worker pools split packed batches at this granularity.
func (e *Evaluator) StripeWords() int { return e.program().StripeWords() }

// Circuit returns the evaluated circuit.
func (e *Evaluator) Circuit() *netlist.Circuit { return e.simulator.Circuit() }

// CyclePowerMW returns the cycle power in milliwatts, the unit of the
// paper's Table 2, for the vector pair (v1, v2): settle at v1, apply v2,
// average dissipation over one clock.
func (e *Evaluator) CyclePowerMW(v1, v2 []bool) float64 {
	// Toggles aliases simulator scratch; it is consumed before the next
	// RunCycle, so no defensive copy is needed.
	return e.powerOf(e.simulator.RunCycle(v1, v2).Toggles)
}

// CyclePowerW returns CyclePowerMW in watts.
func (e *Evaluator) CyclePowerW(v1, v2 []bool) float64 {
	return e.CyclePowerMW(v1, v2) / 1e3
}

// powerOf converts per-gate toggle counts to mW: a gate's first
// transition is a full C·V² event, further transitions (hazard pulses)
// count at the partial GlitchSwing weight.
func (e *Evaluator) powerOf(toggles []int32) float64 {
	var a, n int64
	for g, c := range toggles {
		if c != 0 {
			a += int64(e.weights[g])
			n += int64(e.weights[g]) * int64(c)
		}
	}
	return e.mw(a, n-a)
}

// mw turns a cycle's integer energy into power (mW): a quanta at full
// swing, one toggle of each gate that toggled, and g quanta at the
// partial glitch swing, the toggles after each gate's first. Every power
// path ends here, so equal integers give equal bits, whatever
// multiply-adds the compiler fuses.
func (e *Evaluator) mw(a, g int64) float64 {
	return (e.unitW*(float64(a)+e.glitch*float64(g)) + e.leakW) * 1e3
}

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
	if len(e.n) < sl {
		e.acc = make([]int32, 2*sl)
		e.n = make([]int64, sl)
	}
	if e.spec == nil {
		e.spec = sim.NewSpeculative(p)
	}
	e.stripeMW(e.spec.Run(pp, stripe), out)
	return nil
}

// stripeMW folds a striped result into lane powers (mW): A from Any,
// and N as Σ_l 2^l times the fold of count plane l, so every int32 lane
// sum stays within the weights' bound and N, in int64, cannot wrap. A
// zero-delay result has no count planes: each gate toggles at most once,
// and N = A. Lanes past the batch are not copied out.
func (e *Evaluator) stripeMW(r *sim.StripedResult, out []float64) {
	lanes := r.AW * 64
	a, p, n := e.acc[:lanes], e.acc[lanes:2*lanes], e.n[:lanes]
	fold(a, e.weights, r.Any, r.AW)
	if r.Levels() == 0 {
		for i := range out {
			out[i] = e.mw(int64(a[i]), 0)
		}
		return
	}
	clear(n)
	for l := range r.Levels() {
		fold(p, e.weights, r.CountPlane(l), r.AW)
		for i, v := range p {
			n[i] += int64(v) << l
		}
	}
	for i := range out {
		out[i] = e.mw(int64(a[i]), n[i]-int64(a[i]))
	}
}

// CycleDetail returns cycle power (W) along with the simulator's settle
// time (ps) and event count, for callers that need more than power (the
// path-delay example uses SettleTime as its random variable).
func (e *Evaluator) CycleDetail(v1, v2 []bool) (powerW float64, settlePS int64, events int) {
	res := e.simulator.RunCycle(v1, v2)
	return e.powerOf(res.Toggles) / 1e3, res.SettleTime, res.Events
}
