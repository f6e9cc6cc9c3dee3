// Package sim implements the event-driven gate-level timing simulator that
// stands in for the paper's transistor-level power simulator (PowerMill).
// A simulation cycle applies a vector pair (v1, v2): the circuit is settled
// at v1, then v2 is applied at t = 0 and timed events propagate through the
// gate delays, counting every output transition — including glitches —
// with single-pending-event inertial filtering (a pulse shorter than a
// gate's delay is swallowed, as in real hardware).
//
// # Compiled batch executor
//
// Beyond the scalar Simulator the package compiles a circuit and its
// delay assignment into a Program, a flat straight-line kernel whose
// slot s is gate s, and runs it on the Speculative executor over stripes
// of up to eight 64-lane words (512 vector pairs) read from PackedPairs
// bit planes. It is bit-identical per lane to the scalar path and built
// for the estimation hot loop, where thousands of independent vector
// pairs are simulated per estimate. A zero-delay stripe settles both
// vectors in one topological walk that also writes the toggle plane (an
// AVX-512 kernel where the CPU has one). A timed stripe settles the same
// way and then patches toggle counts from static hazard analysis and
// per-gate waveform merges; toggle counts are kept as bit-plane
// ripple-carry counters. A stripe whose merges mispredict replays its
// lanes on the scalar Simulator.
//
// power.Evaluator runs every packed batch on Speculative; the scalar
// Simulator remains the verification oracle (differential tests), the
// misprediction replay and the single-pair introspection path. DESIGN.md
// §§11, 13, 19 and 22 describe the algorithms.
package sim

import (
	"fmt"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// Result holds the outcome of one simulated cycle. The slices are owned by
// the Simulator and are overwritten by the next RunCycle call: a caller
// that keeps a Result past the next cycle sees it silently rewritten. Use
// CopyToggles to snapshot the counts before simulating again.
type Result struct {
	// Toggles counts output transitions per gate during the cycle,
	// including glitches. Primary-input toggles are counted too. The slice
	// aliases the simulator's reusable buffer — valid only until the next
	// RunCycle on the owning Simulator.
	Toggles []int32
	// SettleTime is the time in ps of the last value change (0 when the
	// vector pair causes no activity).
	SettleTime int64
	// Events is the total number of applied value changes.
	Events int
}

// Simulator evaluates cycles on one circuit under one delay model. It keeps
// reusable internal buffers and is not safe for concurrent use; use Clone
// to give each goroutine its own instance.
type Simulator struct {
	c        *netlist.Circuit
	delays   []int64
	zeroMode bool

	values  []bool // current value per gate
	toggles []int32
	faninV  []bool // scratch fan-in values

	// Event queue state (timed mode).
	pendingTime []int64
	pendingVal  []bool
	hasPending  []bool
	heap        []event
	changed     []int32 // scratch: gates applied in the current delta cycle

	// Scratch for zero-delay mode.
	settled1 []bool
	settled2 []bool

	res Result
}

type event struct {
	t    int64
	gate int32
	val  bool
}

// New builds a simulator for the circuit under the given delay model. A nil
// model defaults to delay.FanoutLoaded{}. A negative logic-gate delay
// panics.
func New(c *netlist.Circuit, m delay.Model) *Simulator {
	return newSimulator(c, assignDelays(c, m))
}

// assignDelays draws the per-gate delays in ps of model m (nil =
// delay.FanoutLoaded{}) for the circuit.
func assignDelays(c *netlist.Circuit, m delay.Model) []int64 {
	if m == nil {
		m = delay.FanoutLoaded{}
	}
	d := m.Assign(c)
	if len(d) != c.NumGates() {
		panic(fmt.Sprintf("sim: delay model %s returned %d delays for %d gates", m.Name(), len(d), c.NumGates()))
	}
	return d
}

// zeroDelay reports whether the per-gate delays d run the glitch-free
// zero-delay path: no logic gate has a positive delay (Input entries are
// ignored). It panics on a negative logic-gate delay. The Simulator,
// Compile and Fingerprint all decide by it.
func zeroDelay(c *netlist.Circuit, d []int64) bool {
	zero := true
	for i, g := range c.Gates {
		if g.Kind == netlist.Input {
			continue
		}
		if d[i] < 0 {
			panic(fmt.Sprintf("sim: negative delay for gate %s", g.Name))
		}
		if d[i] > 0 {
			zero = false
		}
	}
	return zero
}

// newSimulator builds a simulator over the per-gate delays d, which it
// keeps and never modifies.
func newSimulator(c *netlist.Circuit, d []int64) *Simulator {
	n := c.NumGates()
	return &Simulator{
		c:           c,
		delays:      d,
		zeroMode:    zeroDelay(c, d),
		values:      make([]bool, n),
		toggles:     make([]int32, n),
		faninV:      make([]bool, 0, 8),
		pendingTime: make([]int64, n),
		pendingVal:  make([]bool, n),
		hasPending:  make([]bool, n),
		settled1:    make([]bool, n),
		settled2:    make([]bool, n),
	}
}

// Clone returns an independent simulator over the same circuit and delays.
func (s *Simulator) Clone() *Simulator { return newSimulator(s.c, s.delays) }

// CopyToggles returns an independent copy of the per-gate toggle counts,
// reusing dst when it has the capacity. It is the safe way to hold toggle
// data across RunCycle calls, whose Result.Toggles aliases simulator-owned
// scratch.
func (r *Result) CopyToggles(dst []int32) []int32 {
	if cap(dst) < len(r.Toggles) {
		dst = make([]int32, len(r.Toggles))
	}
	dst = dst[:len(r.Toggles)]
	copy(dst, r.Toggles)
	return dst
}

// Circuit returns the simulated circuit.
func (s *Simulator) Circuit() *netlist.Circuit { return s.c }

// DelaysPS returns the simulator's per-gate delay assignment in ps. The
// slice is the simulator's own (immutable after construction) — callers
// must not modify it. It lets a Program be compiled from the exact delays
// of this scalar oracle (Compile) even when the delay model's Assign is
// not deterministic.
func (s *Simulator) DelaysPS() []int64 { return s.delays }

// ZeroDelay reports whether the simulator runs in the glitch-free
// zero-delay fast path.
func (s *Simulator) ZeroDelay() bool { return s.zeroMode }

// settleInto evaluates the steady state for input vector v into dst.
func (s *Simulator) settleInto(dst []bool, v []bool) {
	c := s.c
	for i, idx := range c.Inputs {
		dst[idx] = v[i]
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Kind == netlist.Input {
			continue
		}
		s.faninV = s.faninV[:0]
		for _, f := range g.Fanin {
			s.faninV = append(s.faninV, dst[f])
		}
		dst[i] = g.Kind.Eval(s.faninV)
	}
}

// Settle computes and returns the steady-state values for an input vector.
// The returned slice is owned by the simulator.
func (s *Simulator) Settle(v []bool) []bool {
	s.checkInput(v)
	s.settleInto(s.values, v)
	return s.values
}

func (s *Simulator) checkInput(v []bool) {
	if len(v) != s.c.NumInputs() {
		panic(fmt.Sprintf("sim: vector has %d bits, circuit %s has %d inputs", len(v), s.c.Name, s.c.NumInputs()))
	}
}

// RunCycle simulates the vector pair (v1, v2) and returns the cycle result.
// The Result (and its Toggles slice) is reused across calls.
func (s *Simulator) RunCycle(v1, v2 []bool) *Result {
	s.checkInput(v1)
	s.checkInput(v2)
	for i := range s.toggles {
		s.toggles[i] = 0
	}
	if s.zeroMode {
		s.runZero(v1, v2)
	} else {
		s.runTimed(v1, v2)
	}
	s.res.Toggles = s.toggles
	return &s.res
}

// runZero implements the glitch-free zero-delay fast path: each gate
// toggles at most once, iff its settled value differs between v1 and v2.
func (s *Simulator) runZero(v1, v2 []bool) {
	s.settleInto(s.settled1, v1)
	s.settleInto(s.settled2, v2)
	events := 0
	for i := range s.settled1 {
		if s.settled1[i] != s.settled2[i] {
			s.toggles[i] = 1
			events++
		}
	}
	s.res.SettleTime = 0
	s.res.Events = events
}

// runTimed implements the event-driven timed simulation.
func (s *Simulator) runTimed(v1, v2 []bool) {
	c := s.c
	s.settleInto(s.values, v1)
	for i := range s.hasPending {
		s.hasPending[i] = false
	}
	s.heap = s.heap[:0]

	events := 0
	var lastTime int64

	fanouts := c.Fanouts()
	changed := s.changed[:0]

	// Apply the new input vector at t = 0: first flip all inputs, then
	// evaluate fanouts, so simultaneous input edges are seen together.
	for i, idx := range c.Inputs {
		if s.values[idx] != v2[i] {
			s.values[idx] = v2[i]
			s.toggles[idx]++
			events++
			changed = append(changed, int32(idx))
		}
	}
	for _, g := range changed {
		for _, f := range fanouts[g] {
			s.evaluateAndSchedule(f, 0)
		}
	}

	// Delta-cycle loop: apply every valid event at the current timestamp
	// before re-evaluating any fanout, so simultaneous edges neither mask
	// nor cancel each other.
	for len(s.heap) > 0 {
		t := s.heap[0].t
		changed = changed[:0]
		for len(s.heap) > 0 && s.heap[0].t == t {
			ev := s.pop()
			g := int(ev.gate)
			// Lazy cancellation: only the currently pending event applies.
			if !s.hasPending[g] || s.pendingTime[g] != ev.t || s.pendingVal[g] != ev.val {
				continue
			}
			s.hasPending[g] = false
			if s.values[g] == ev.val {
				continue
			}
			s.values[g] = ev.val
			s.toggles[g]++
			events++
			changed = append(changed, ev.gate)
		}
		if len(changed) > 0 {
			lastTime = t
		}
		for _, g := range changed {
			for _, f := range fanouts[g] {
				s.evaluateAndSchedule(f, t)
			}
		}
	}
	s.changed = changed[:0]
	s.res.SettleTime = lastTime
	s.res.Events = events
}

// evaluateAndSchedule recomputes gate g at time now and maintains its
// single pending event with inertial semantics.
func (s *Simulator) evaluateAndSchedule(g int, now int64) {
	gate := &s.c.Gates[g]
	s.faninV = s.faninV[:0]
	for _, f := range gate.Fanin {
		s.faninV = append(s.faninV, s.values[f])
	}
	nv := gate.Kind.Eval(s.faninV)

	d := s.delays[g]
	if d <= 0 {
		d = 1 // timed mode guards against zero-delay gates to ensure progress
	}
	when := now + d

	if s.hasPending[g] {
		if s.pendingVal[g] == nv {
			// Already heading to this value; keep the earlier event.
			return
		}
		if nv == s.values[g] {
			// The scheduled pulse was shorter than the gate delay:
			// inertial cancellation.
			s.hasPending[g] = false
			return
		}
		// Replace the pending transition (the old heap entry goes stale).
		s.pendingVal[g] = nv
		s.pendingTime[g] = when
		s.push(event{t: when, gate: int32(g), val: nv})
		return
	}
	if nv == s.values[g] {
		return
	}
	s.hasPending[g] = true
	s.pendingVal[g] = nv
	s.pendingTime[g] = when
	s.push(event{t: when, gate: int32(g), val: nv})
}

// push and pop implement a binary min-heap on event time.
func (s *Simulator) push(e event) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent].t <= s.heap[i].t {
			break
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

func (s *Simulator) pop() event {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s.heap) && s.heap[l].t < s.heap[small].t {
			small = l
		}
		if r < len(s.heap) && s.heap[r].t < s.heap[small].t {
			small = r
		}
		if small == i {
			break
		}
		s.heap[i], s.heap[small] = s.heap[small], s.heap[i]
		i = small
	}
	return top
}
