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
package power

import (
	"fmt"
	"math"
	"math/bits"

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

// Evaluator computes cycle power for vector pairs on one circuit. It wraps
// a Simulator and is not safe for concurrent use; Clone gives each worker
// an independent instance.
type Evaluator struct {
	simulator *sim.Simulator
	params    Params
	// energyW[g] = ½·Vdd²·C_g·(1+sc), in joules per toggle (C in farads).
	energyW []float64
	leakW   float64 // total leakage power, watts
	clockS  float64 // clock period, seconds
	glitch  float64 // per-extra-toggle energy scale (partial swing)

	batch *sim.BitParallel // lazily created 64-lane settle engine (zero delay)
	timed *sim.TimedBatch  // lazily created 64-lane timed engine (glitch-aware)

	// Compiled-kernel state (UseKernels): the immutable program is shared
	// across clones and — through the cache — across evaluators for the
	// same (circuit, delay model); the striped executor is per-instance
	// mutable run state, built lazily like batch/timed. slotEnergy is
	// energyW in the program's slot order, resolved with the program and
	// shared like it; acc is the per-instance stripe-sized accumulator
	// of stripeMW.
	useKernels bool
	kernels    *sim.ProgramCache
	kernelKey  string
	prog       *sim.Program
	slotEnergy []float64
	acc        []float64
	striped    *sim.Striped
	// speculate selects the settle-then-patch executor for kernel
	// stripes; spec is its lazily built per-instance run state (it owns
	// a wheel of its own for per-stripe misprediction fallback).
	speculate bool
	spec      *sim.Speculative

	// pack1/pack2 are the [][]bool-adapter pack scratch, reused across
	// calls so the legacy batch entry points stop allocating per call.
	// The packed core never touches them: callers of the packed APIs own
	// their planes (one PackedPairs per source, reused per batch).
	pack1, pack2 []uint64
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
// — including any compiled kernel program, which is read-only and safe to
// run from many clones at once (each clone builds its own executor).
func (e *Evaluator) Clone() *Evaluator {
	return &Evaluator{
		simulator:  e.simulator.Clone(),
		params:     e.params,
		energyW:    e.energyW,
		leakW:      e.leakW,
		clockS:     e.clockS,
		glitch:     e.glitch,
		useKernels: e.useKernels,
		kernels:    e.kernels,
		kernelKey:  e.kernelKey,
		prog:       e.prog,
		slotEnergy: e.slotEnergy,
		speculate:  e.speculate,
	}
}

// UseKernels switches the packed batch entry points onto the compiled
// multi-word striped engine. cache, when non-nil, deduplicates the
// compile under key (the service keys on circuit identity + delay model);
// a nil cache compiles privately on first use. Either way results stay
// bit-identical to the interpreted per-block path — the engine's
// differential tests guarantee it against the scalar oracle.
func (e *Evaluator) UseKernels(cache *sim.ProgramCache, key string) {
	e.useKernels = true
	e.kernels = cache
	e.kernelKey = key
	e.prog = nil
	e.slotEnergy = nil
	e.striped = nil
	e.speculate = false
	e.spec = nil
}

// KernelsEnabled reports whether the compiled striped engine is active.
func (e *Evaluator) KernelsEnabled() bool { return e.useKernels }

// UseSpeculative is UseKernels with the speculative settle-then-patch
// executor selected for timed stripes: phase 1 settles both vectors on
// the zero-delay compiled path, phase 2 patches toggle counts from
// compile-time hazard analysis and per-gate-word waveform merges, and
// any gate-word whose final waveform value disagrees with the settled
// vector sends that stripe to the full event wheel. Results stay
// bit-identical to the wheel — and so to the scalar oracle — on every
// delay model (the misprediction check is exact, not heuristic); only
// the execution strategy and speed change. Zero-delay programs are
// unaffected (settling already is the whole computation there).
func (e *Evaluator) UseSpeculative(cache *sim.ProgramCache, key string) {
	e.UseKernels(cache, key)
	e.speculate = true
	e.spec = nil
}

// SpeculationEnabled reports whether kernel stripes run on the
// settle-then-patch executor.
func (e *Evaluator) SpeculationEnabled() bool { return e.useKernels && e.speculate }

// SpecStats returns this evaluator's cumulative speculation counters
// (zero when the speculative executor is off or not yet built). Clones
// count independently; sum across a worker pool for run totals.
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

// StripeWords returns the active kernel's stripe width in 64-lane words
// (1 when kernels are disabled — the interpreted path works block by
// block). Worker pools split packed batches at this granularity.
func (e *Evaluator) StripeWords() int {
	if !e.useKernels {
		return 1
	}
	return e.program().StripeWords()
}

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
// (all gate delays zero), which enables the bit-parallel batch path.
func (e *Evaluator) ZeroDelay() bool { return e.simulator.ZeroDelay() }

// ZeroDelayBatchMW evaluates up to 64 vector pairs in one pass using the
// 64-lane bit-parallel engine and returns their cycle powers in mW. It
// requires a zero-delay evaluator (the timed path cannot be lane-packed);
// results are bit-identical to calling CyclePowerMW per pair. It is a
// thin [][]bool adapter over the packed core (zeroDelayBlockMW).
func (e *Evaluator) ZeroDelayBatchMW(v1s, v2s [][]bool) ([]float64, error) {
	if !e.ZeroDelay() {
		return nil, fmt.Errorf("power: batch evaluation requires the zero-delay model")
	}
	if len(v1s) != len(v2s) {
		return nil, fmt.Errorf("power: %d first vectors vs %d second", len(v1s), len(v2s))
	}
	if e.batch == nil {
		e.batch = sim.NewBitParallel(e.Circuit())
	}
	var err error
	if e.pack1, err = e.batch.PackInputsInto(e.pack1, v1s); err != nil {
		return nil, err
	}
	if e.pack2, err = e.batch.PackInputsInto(e.pack2, v2s); err != nil {
		return nil, err
	}
	out := make([]float64, len(v1s))
	e.zeroDelayBlockMW(e.pack1, e.pack2, out)
	return out, nil
}

// zeroDelayBlockMW is the packed zero-delay core: one 64-lane block of
// pre-packed bit planes (one word per primary input) in, len(out) ≤ 64
// lane powers (mW) out, zero heap allocations in steady state. The energy
// accumulation visits gates in ascending order with one add per toggled
// gate, so every lane's float64 sum is bit-identical to the scalar
// energyOf path.
func (e *Evaluator) zeroDelayBlockMW(in1, in2 []uint64, out []float64) {
	if e.batch == nil {
		e.batch = sim.NewBitParallel(e.Circuit())
	}
	masks := e.batch.CycleDiff(in1, in2)
	for i := range out {
		out[i] = 0
	}
	for g, w := range masks {
		if w == 0 {
			continue
		}
		eg := e.energyW[g]
		for w != 0 {
			lane := bits.TrailingZeros64(w)
			w &= w - 1
			if lane < len(out) {
				out[lane] += eg
			}
		}
	}
	for i := range out {
		out[i] = (out[i]/e.clockS + e.leakW) * 1e3
	}
}

// TimedBatchMW evaluates up to 64 vector pairs in one pass of the
// lane-packed event-driven timed simulator (sim.TimedBatch) and returns
// their cycle powers in mW, glitches included. It requires a timed
// (non-zero) delay model; results are bit-identical to calling
// CyclePowerMW per pair, because the engine's per-lane toggle counts match
// the scalar simulator's and the glitch-weighted energy sum runs in the
// same gate order with the same operations.
func (e *Evaluator) TimedBatchMW(v1s, v2s [][]bool) ([]float64, error) {
	if e.ZeroDelay() {
		return nil, fmt.Errorf("power: timed batch evaluation requires a non-zero delay model (use ZeroDelayBatchMW)")
	}
	if len(v1s) != len(v2s) {
		return nil, fmt.Errorf("power: %d first vectors vs %d second", len(v1s), len(v2s))
	}
	if e.timed == nil {
		e.timed = sim.NewTimedBatchDelays(e.Circuit(), e.simulator.DelaysPS())
	}
	var err error
	if e.pack1, err = e.timed.PackInputsInto(e.pack1, v1s); err != nil {
		return nil, err
	}
	if e.pack2, err = e.timed.PackInputsInto(e.pack2, v2s); err != nil {
		return nil, err
	}
	out := make([]float64, len(v1s))
	e.timedBlockMW(e.pack1, e.pack2, out)
	return out, nil
}

// timedBlockMW is the packed timed core: one 64-lane block of pre-packed
// bit planes in, len(out) ≤ 64 glitch-weighted lane powers (mW) out,
// allocation-free in steady state (the TimedBatch engine reuses its
// calendar and toggle planes across calls).
func (e *Evaluator) timedBlockMW(in1, in2 []uint64, out []float64) {
	if e.timed == nil {
		e.timed = sim.NewTimedBatchDelays(e.Circuit(), e.simulator.DelaysPS())
	}
	res := e.timed.RunCycles(in1, in2)
	for i := range out {
		out[i] = 0
	}
	for g, any := range res.Any {
		if any == 0 {
			continue
		}
		eg := e.energyW[g]
		// Lanes where the gate toggled exactly once (the common case) have
		// eff = 1 + glitch·0 = 1 exactly, so adding eg unmodified is
		// bit-identical to the scalar expression and skips the per-lane
		// count reconstruction. Per lane the sum still runs in ascending
		// gate order with one add per gate, matching energyOf.
		multi := res.MultiMask(g)
		for w := any &^ multi; w != 0; w &= w - 1 {
			lane := bits.TrailingZeros64(w)
			if lane >= len(out) {
				break // inert packing lanes beyond the batch
			}
			out[lane] += eg
		}
		for w := multi; w != 0; w &= w - 1 {
			lane := bits.TrailingZeros64(w)
			if lane >= len(out) {
				break
			}
			// Same expression and accumulation order as energyOf, so each
			// lane's float64 sum is bit-identical to the scalar path.
			n := res.Count(g, lane)
			eff := 1 + e.glitch*float64(n-1)
			out[lane] += eff * eg
		}
	}
	for i := range out {
		out[i] = (out[i]/e.clockS + e.leakW) * 1e3
	}
}

// BatchMW evaluates up to 64 vector pairs through the delay model's
// lane-packed engine: the bit-parallel settle path under zero delay, the
// event-driven TimedBatch otherwise. Either way the results are
// bit-identical to per-pair CyclePowerMW calls. It is the [][]bool
// adapter; the sampling pipeline itself feeds pre-packed planes to
// BatchMWPacked and never materializes [][]bool.
func (e *Evaluator) BatchMW(v1s, v2s [][]bool) ([]float64, error) {
	if e.ZeroDelay() {
		return e.ZeroDelayBatchMW(v1s, v2s)
	}
	return e.TimedBatchMW(v1s, v2s)
}

// BatchMWPacked evaluates a whole packed batch — any number of pairs, in
// 64-lane bit-plane blocks — into out (mW), which must be exactly pp.N
// long. This is the native entry point of the sampling pipeline: no
// [][]bool is materialized, no per-call transpose happens, and after the
// lazily-built lane engine warms up the call performs zero heap
// allocations. Results are bit-identical to per-pair CyclePowerMW calls
// for every delay model.
func (e *Evaluator) BatchMWPacked(pp *sim.PackedPairs, out []float64) error {
	if len(out) != pp.N {
		return fmt.Errorf("power: %d power slots for %d packed pairs", len(out), pp.N)
	}
	if e.useKernels {
		sl := e.program().StripeLanes()
		for b0 := 0; b0 < pp.N; b0 += sl {
			end := b0 + sl
			if end > pp.N {
				end = pp.N
			}
			if err := e.PackedStripeMW(pp, b0/sl, out[b0:end]); err != nil {
				return err
			}
		}
		return nil
	}
	for b := 0; b < pp.Blocks(); b++ {
		in1, in2, lanes := pp.Block(b)
		if err := e.PackedBlockMW(in1, in2, out[b*64:b*64+lanes]); err != nil {
			return err
		}
	}
	return nil
}

// PackedStripeMW evaluates one stripe — StripeWords 64-lane blocks — of
// the packed batch through the compiled striped engine into out, which
// must cover exactly the stripe's lanes (shorter on the final partial
// stripe). The striped analogue of PackedBlockMW, exposed at the same
// seam so worker pools can split batches at stripe granularity;
// allocation-free in steady state and bit-identical per lane to the
// scalar oracle for every delay model.
func (e *Evaluator) PackedStripeMW(pp *sim.PackedPairs, stripe int, out []float64) error {
	if !e.useKernels {
		return fmt.Errorf("power: PackedStripeMW requires UseKernels")
	}
	p := e.program()
	sl := p.StripeLanes()
	lanes := pp.N - stripe*sl
	if lanes > sl {
		lanes = sl
	}
	if lanes <= 0 || len(out) != lanes {
		return fmt.Errorf("power: %d power slots for stripe %d of %d packed pairs", len(out), stripe, pp.N)
	}
	if len(e.acc) < sl {
		e.acc = make([]float64, sl)
	}
	var r *sim.StripedResult
	if e.speculate {
		if e.spec == nil {
			e.spec = sim.NewSpeculative(p)
			// Cycle energy needs only the toggle planes: skip the
			// per-lane settle/event aggregation entirely.
			e.spec.LaneStats = false
		}
		r = e.spec.Run(pp, stripe)
	} else {
		if e.striped == nil {
			e.striped = sim.NewStriped(p)
			e.striped.LaneStats = false
		}
		r = e.striped.Run(pp, stripe)
	}
	e.stripeMW(r, out)
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

// PackedBlockMW evaluates one 64-lane block of pre-packed bit planes
// (one word per primary input, lanes beyond len(out) inert) into out
// (1–64 lane powers, mW), dispatching on the delay model exactly like
// BatchMW. The workhorse of BatchMWPacked, exposed so a worker pool can
// split a batch at block granularity; allocation-free in steady state.
func (e *Evaluator) PackedBlockMW(in1, in2 []uint64, out []float64) error {
	n := e.Circuit().NumInputs()
	if len(in1) != n || len(in2) != n {
		return fmt.Errorf("power: packed block width %d/%d, circuit has %d inputs", len(in1), len(in2), n)
	}
	if len(out) == 0 || len(out) > 64 {
		return fmt.Errorf("power: packed block of %d lanes (want 1–64)", len(out))
	}
	if e.ZeroDelay() {
		e.zeroDelayBlockMW(in1, in2, out)
	} else {
		e.timedBlockMW(in1, in2, out)
	}
	return nil
}

// CycleDetail returns cycle power (W) along with the simulator's settle
// time (ps) and event count, for callers that need more than power (the
// path-delay example uses SettleTime as its random variable).
func (e *Evaluator) CycleDetail(v1, v2 []bool) (powerW float64, settlePS int64, events int) {
	res := e.simulator.RunCycle(v1, v2)
	return e.energyOf(res.Toggles)/e.clockS + e.leakW, res.SettleTime, res.Events
}
