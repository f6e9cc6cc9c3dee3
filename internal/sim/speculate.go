package sim

import "fmt"

// Speculative executes a compiled Program over stripes of up to eight
// 64-lane words — 512 vector pairs a stripe. It is the package's one
// packed executor: power.Evaluator runs every packed batch on it.
//
// A zero-delay stripe settles both input vectors in one walk of the
// straight-line program, which writes the toggle plane too; there are no
// glitches to count. A timed stripe runs settle-then-patch. Phase 1 is
// the same walk — under 1% of a C3540 stripe, a quarter of that on the
// AVX-512 kernel — giving every gate-word its final value in both
// planes, whose XOR is its activity mask (the settle diff). Phase 2
// walks the levelized slot order exactly once and *patches* toggle
// counts in place:
//
//   - Slots outside the compile-time hazard frontier (Program.arrT ≥ 0)
//     can toggle at most once, at a statically known time, so their
//     toggle count is the settle diff itself — no event machinery at
//     all, just one plane store and one emitted waveform event for
//     their fan-outs.
//   - Hazardous slots run a per-(gate, word) waveform merge: each
//     fan-in's output transitions form a sorted (time, lane-mask) event
//     list in a shared arena, and a k-way merge replays the scalar
//     simulator's single-pending-event inertial algebra (fresh/cancel
//     masks, commit-before-evaluate at ts ≤ t) over the merged arrival
//     times, as word-level mask algebra. The gate is processed once, not
//     once per event.
//   - A dynamic fast path catches hazard-eligible gate-words whose
//     merged arrivals collapse to a single time this stripe (one more
//     single-transition patch, at stripe granularity).
//
// The waveform value after the final commit must equal the settled
// second-vector value in every lane; any disagreement is a
// misprediction, and the stripe's active lanes replay on the scalar
// Simulator (replay), so results stay bit-identical to the scalar oracle
// by construction even if an invariant is ever violated. No test circuit
// or delay model has reached the replay; SpecStats.Fallbacks counts it.
//
// Per-gate delays are lane-invariant, so one instruction, one delay and
// one hazard class cover all of a stripe's lanes. All run state is laid
// out at the *active* word count of the current stripe (aw ≤ 8): a
// 5-block stripe packs values and counter planes at 5 words per slot, so
// every fetched cache line is fully used; the layout re-derives per run
// from one integer.
//
// Every lane's toggle counts are bit-identical to the scalar Simulator
// on that lane's vector pair (the differential tests enforce this on the
// zero, unit, fanout, and table models); they are all the executor
// computes, and all the energy fold reads. A Speculative owns mutable
// run state and is not safe for concurrent use; build one per goroutine
// over a shared immutable Program (power.Evaluator.Clone does this).
type Speculative struct {
	// Deprecated: LaneStats has no effect; the executor computes toggle
	// counts only. It stays for callers that still assign it, until they
	// move off it (ROADMAP item 9).
	LaneStats bool

	p      *Program
	aw     int // active words of the current stripe (1..8)
	stride int // slots · aw: words per value or counter plane

	// fabRun is the program's fab table with both fan-in slot ids
	// pre-multiplied by the current active word count — rebuilt only when
	// aw changes, so steady-state evaluation indexes values directly.
	fabRun []uint64
	lastAW int

	val []uint64 // [slot·aw + k]: settle(v1), initial values and merge stream seeds
	aux []uint64 // settle(v2): final values (the mispredict check)

	res StripedResult

	// The waveform arena: one (time, mask) pair per applied output
	// transition, interleaved at ev[2i] / ev[2i+1] so consuming an event
	// touches one cache line instead of two parallel streams. Segments
	// are per (slot, word), slot-major then word: offs[f·aw+k] is the
	// doubled arena offset of fan-in f's word-k events. Kept at
	// len == cap with an explicit write index so the merge inner loops
	// index a local slice with no append machinery; grows to the
	// circuit's peak event count, after which runs are allocation-free.
	// Times are non-negative and bounded by depth · the largest
	// normalized delay, so they store and compare as uint64 exactly.
	ev   []uint64
	offs []int32
	// ends[w] is word w's doubled segment end. Separate from offs so
	// segments need not be contiguous: paired merges emit into disjoint
	// regions of the arena, leaving dead space between segments that
	// every consumer (fan-in reads, countSegment) skips by
	// reading [offs[w], ends[w]) instead of [offs[w], offs[w+1]).
	ends []int32
	// m2w is the parked-merge scratch slot.
	m2w [1]m2

	// ≥3-fan-in merge scratch: stream cursors, ends, and running values.
	wi, we []int32
	wv     []uint64

	// oracle is replay's scalar simulator over the program's normalized
	// delays, and v1, v2 its vectors; built on the first misprediction.
	oracle *Simulator
	v1, v2 []bool

	specStripes   uint64
	specPatched   uint64
	specFallbacks uint64
}

// SpecStats is a point-in-time snapshot of a Speculative executor's
// cumulative speculation counters.
type SpecStats struct {
	// Stripes counts timed stripes attempted speculatively (zero-delay
	// stripes never speculate — the settle walk already is the result).
	// Fallbacks counts the subset that mispredicted and replayed on the
	// scalar Simulator; PatchedWords the gate-words whose toggle counts
	// were patched straight from the settle diff (static hazard-free
	// slots plus dynamic single-arrival-time words) without any
	// event-merge work.
	Stripes, PatchedWords, Fallbacks uint64
}

// Add accumulates other into s, the merge direction used when draining
// per-worker executors into a run-level total.
func (s *SpecStats) Add(other SpecStats) {
	s.Stripes += other.Stripes
	s.PatchedWords += other.PatchedWords
	s.Fallbacks += other.Fallbacks
}

// NewSpeculative builds an executor for the program. Value planes and
// result arrays are allocated up front at full stripe capacity; the
// waveform arena and the deep counter planes grow lazily to the
// circuit's peak event count and toggle depth, after which runs are
// allocation-free.
func NewSpeculative(p *Program) *Speculative {
	capWords := p.n * stripeWords
	sp := &Speculative{
		p:      p,
		lastAW: -1,
		fabRun: make([]uint64, p.n),
		val:    make([]uint64, capWords),
		aux:    make([]uint64, capWords),
	}
	sp.res = StripedResult{
		NSlots: p.n,
		Any:    make([]uint64, capWords),
	}
	if p.zeroDelay {
		return sp
	}
	// Two full counter planes up front: every timed run has both count
	// bits resident, so the aggregation pass never branches on missing
	// levels; deeper levels (counts ≥ 4) still grow lazily.
	sp.res.planes = make([]uint64, 0, 2*capWords)
	sp.res.ovAny = make([]uint64, capWords)
	sp.offs = make([]int32, capWords)
	sp.ends = make([]int32, capWords)
	return sp
}

// Stats returns the cumulative speculation counters.
func (sp *Speculative) Stats() SpecStats {
	return SpecStats{
		Stripes:      sp.specStripes,
		PatchedWords: sp.specPatched,
		Fallbacks:    sp.specFallbacks,
	}
}

// Run simulates stripe number `stripe` of the packed batch (blocks
// stripe·8 … stripe·8+7, missing trailing blocks inert) and returns the
// per-lane results. The returned result is reused by the next call (see
// StripedResult's aliasing contract).
func (sp *Speculative) Run(pp *PackedPairs, stripe int) *StripedResult {
	b0 := sp.prepare(pp, stripe)
	if sp.p.zeroDelay {
		sp.runZero(pp, b0)
		return &sp.res
	}
	sp.specStripes++
	if !sp.wave(pp, b0) {
		sp.specFallbacks++
		sp.replay(pp, b0)
	}
	sp.finalizeTimed()
	return &sp.res
}

// prepare validates the stripe, derives the active word count, and
// reshapes the run state to it.
func (sp *Speculative) prepare(pp *PackedPairs, stripe int) int {
	p := sp.p
	if pp.Inputs != p.c.NumInputs() {
		panic(fmt.Sprintf("sim: packed batch width %d, circuit has %d inputs", pp.Inputs, p.c.NumInputs()))
	}
	blocks := pp.Blocks()
	b0 := stripe * stripeWords
	if stripe < 0 || b0 >= blocks {
		panic(fmt.Sprintf("sim: stripe %d of %d-block batch", stripe, blocks))
	}
	aw := min(blocks-b0, stripeWords)
	sp.aw = aw
	sp.stride = p.n * aw
	sp.res.AW = aw
	sp.res.stride = sp.stride
	if aw != sp.lastAW {
		// Reshape: pre-multiply the fan-in slot ids by the new word count.
		a := uint64(aw)
		for s, fab := range p.fab {
			sp.fabRun[s] = uint64(uint32(fab))*a | (fab>>32)*a<<32
		}
		// The aggregation pass assigns Any only inside the active stride,
		// so a shrink leaves the old shape's tail words behind; clear them
		// once here so lanes beyond the batch always read zero.
		clear(sp.res.Any[sp.stride:])
		sp.lastAW = aw
	}
	return b0
}

// loadInputs gathers the stripe's input plane words (blocks b0…b0+aw−1)
// into the value plane vals.
func (sp *Speculative) loadInputs(vals, plane []uint64, b0 int) {
	aw := sp.aw
	inp := len(sp.p.c.Inputs)
	for i, g := range sp.p.c.Inputs {
		base := g * aw
		off := b0*inp + i
		for k := 0; k < aw; k++ {
			vals[base+k] = plane[off+k*inp]
		}
	}
}

// resetResult zeroes the per-run accounting and reshapes the toggle
// planes to the current stride: the two count bits every timed run
// writes, cleared. deepCarry appends the deeper levels a run reaches,
// zeroed, so Levels covers exactly the planes this run can have set.
func (sp *Speculative) resetResult() {
	res := &sp.res
	res.planes = res.planes[:2*sp.stride]
	res.levels = 2
	clear(res.planes)
	if res.ovAny != nil {
		// Any needs no pre-clearing — the aggregation pass assigns every
		// active word.
		clear(res.ovAny[:sp.stride])
	}
}

// runZero is the compiled zero-delay kernel: one walk settles both
// planes and writes their diff to Any. Glitch-free by contract, so Any
// alone encodes the 0/1 toggle counts, and there are no counter planes
// to reset.
func (sp *Speculative) runZero(pp *PackedPairs, b0 int) {
	sp.loadInputs(sp.val, pp.In1, b0)
	sp.loadInputs(sp.aux, pp.In2, b0)
	sp.settle(sp.val, sp.aux, sp.res.Any)
}

// finalizeTimed derives the aggregate result views from the toggle
// planes after a timed run, whether wave or replay filled them.
func (sp *Speculative) finalizeTimed() {
	stride := sp.stride
	res := &sp.res
	// One sequential pass over the first two counter planes recovers Any
	// (count ≥ 1: bit 0, bit 1, or the overflow union — lanes that
	// reached 4 may have both low bits clear). It is assigned outright,
	// which is why resetResult never pre-zeroes it.
	p0 := res.planes[:stride]
	p1 := res.planes[stride : 2*stride]
	ovp := res.ovAny[:stride]
	for i, v0 := range p0 {
		res.Any[i] = v0 | p1[i] | ovp[i]
	}
}

// replay re-runs the stripe's active lanes on the scalar Simulator after
// a misprediction and writes what it finds where wave would have: each
// gate's count into counter planes 0 and 1 and, from a count of 4 up,
// through deepCarry into the deep planes. The simulator runs the
// program's GCD-normalized delays: toggle counts do not change when
// every delay is scaled by one factor. It is built on first use.
func (sp *Speculative) replay(pp *PackedPairs, b0 int) {
	p := sp.p
	if sp.oracle == nil {
		sp.oracle = newSimulator(p.c, p.delays)
		sp.v1 = make([]bool, p.c.NumInputs())
		sp.v2 = make([]bool, p.c.NumInputs())
	}
	sp.resetResult()
	aw, stride := sp.aw, sp.stride
	lanes := min(pp.N-b0*64, aw*64)
	for l := 0; l < lanes; l++ {
		pp.PairInto(b0*64+l, sp.v1, sp.v2)
		r := sp.oracle.RunCycle(sp.v1, sp.v2)
		k, bit := l>>6, uint64(1)<<uint(l&63)
		for g, n := range r.Toggles {
			if n == 0 {
				continue
			}
			idx := g*aw + k
			// deepCarry may grow the planes: index them afresh per gate.
			planes := sp.res.planes
			if n&1 != 0 {
				planes[idx] |= bit
			}
			if n&2 != 0 {
				planes[stride+idx] |= bit
			}
			for lvl := 2; n>>lvl != 0; lvl++ {
				if n>>lvl&1 != 0 {
					sp.deepCarry(idx, lvl, bit)
				}
			}
		}
	}
}

// evalWideWord computes word k of a ≥3-fan-in slot f from the value
// plane vals.
func (sp *Speculative) evalWideWord(vals []uint64, f, k int) uint64 {
	p := sp.p
	aw := sp.aw
	lo, hi := int(p.faninOff[f]), int(p.faninOff[f+1])
	acc := vals[int(p.faninIdx[lo])*aw+k]
	switch p.fop[f] {
	case fopAndN, fopNandN:
		for _, fo := range p.faninIdx[lo+1 : hi] {
			acc &= vals[int(fo)*aw+k]
		}
		if p.fop[f] == fopNandN {
			acc = ^acc
		}
	case fopOrN, fopNorN:
		for _, fo := range p.faninIdx[lo+1 : hi] {
			acc |= vals[int(fo)*aw+k]
		}
		if p.fop[f] == fopNorN {
			acc = ^acc
		}
	case fopXorN, fopXnorN:
		for _, fo := range p.faninIdx[lo+1 : hi] {
			acc ^= vals[int(fo)*aw+k]
		}
		if p.fop[f] == fopXnorN {
			acc = ^acc
		}
	}
	return acc
}

// wave is the speculative phase-2 kernel. It fills the counter planes
// and overflow unions, and reports false on a misprediction — leaving
// partially written planes for replay's resetResult to clear.
func (sp *Speculative) wave(pp *PackedPairs, b0 int) bool {
	p := sp.p
	aw := sp.aw
	stride := sp.stride
	sp.resetResult()

	sp.loadInputs(sp.val, pp.In1, b0)
	sp.loadInputs(sp.aux, pp.In2, b0)
	sp.settle(sp.val, sp.aux, nil)

	val, aux := sp.val[:stride], sp.aux[:stride]
	offs, ends := sp.offs[:stride], sp.ends[:stride]
	n := 0
	patched := 0
	for s := 0; s < p.n; s++ {
		op := p.fop[s]
		base := s * aw
		if op == fopInput {
			// Inputs flip at t = 0 (the scalar simulator's second-vector
			// application); their toggles count like any other slot's.
			for k := 0; k < aw; k++ {
				offs[base+k] = int32(n)
				d := val[base+k] ^ aux[base+k]
				if d != 0 {
					if n == len(sp.ev) {
						sp.growArena(n + 2)
					}
					sp.ev[n] = 0
					sp.ev[n+1] = d
					n += 2
					sp.res.planes[base+k] = d
				}
				ends[base+k] = int32(n)
			}
			continue
		}
		dly := uint64(p.delays[s])
		if at := p.arrT[s]; at >= 0 {
			// Statically hazard-free: at most one transition, at a time
			// known at compile time — patch the count from the settle
			// diff and emit the single event for downstream merges.
			ut := uint64(at)
			for k := 0; k < aw; k++ {
				offs[base+k] = int32(n)
				dw := val[base+k] ^ aux[base+k]
				if dw != 0 {
					if n == len(sp.ev) {
						sp.growArena(n + 2)
					}
					sp.ev[n] = ut
					sp.ev[n+1] = dw
					n += 2
					sp.res.planes[base+k] = dw
					patched++
				}
				ends[base+k] = int32(n)
			}
			continue
		}
		var class uint8
		var inv uint64
		switch op {
		case fopAnd2:
			class, inv = 0, 0
		case fopNand2:
			class, inv = 0, ^uint64(0)
		case fopOr2:
			class, inv = 1, 0
		case fopNor2:
			class, inv = 1, ^uint64(0)
		case fopXor2:
			class, inv = 2, 0
		case fopXnor2:
			class, inv = 2, ^uint64(0)
		default:
			// ≥3-fan-in slot: the k-way merge carries its own dispatch.
			for k := 0; k < aw; k++ {
				offs[base+k] = int32(n)
				n2, ok := sp.mergeN(base+k, s, k, int64(dly), n)
				if !ok {
					return false
				}
				sp.countSegment(base+k, n, n2)
				ends[base+k] = int32(n2)
				n = n2
			}
			continue
		}
		fab := sp.fabRun[s]
		oaW := int(uint32(fab))
		obW := int(fab >> 32)
		for k := 0; k < aw; k++ {
			offs[base+k] = int32(n)
			ia, ea := int(offs[oaW+k]), int(ends[oaW+k])
			ib, eb := int(offs[obW+k]), int(ends[obW+k])
			// One-input gates duplicate their fan-in in fab; two
			// independent cursors over the same segment evaluate it
			// exactly (both advance on every event, in step).
			na, nb := ea-ia, eb-ib
			if na|nb == 0 {
				ends[base+k] = int32(n)
				continue
			}
			dw := val[base+k] ^ aux[base+k]
			if na+nb == 2 || (na == 2 && nb == 2 && sp.ev[ia] == sp.ev[ib]) {
				// Dynamic fast path: every arrival this stripe lands at
				// one time, so the word settles in one evaluation —
				// single transition iff the settle diff is non-zero.
				if dw != 0 {
					var at uint64
					if na > 0 {
						at = sp.ev[ia]
					} else {
						at = sp.ev[ib]
					}
					at += dly
					if n == len(sp.ev) {
						sp.growArena(n + 2)
					}
					sp.ev[n] = at
					sp.ev[n+1] = dw
					n += 2
					sp.res.planes[base+k] = dw
					patched++
				}
				ends[base+k] = int32(n)
				continue
			}
			// Region reservation: every remaining emission (≤ na+nb
			// entries, pending included), the 4-entry park transition,
			// and the watermark sentinel all fit — no merge loop ever
			// grows (or moves) the arena mid-word.
			if n+na+nb+6 > len(sp.ev) {
				sp.growArena(n + na + nb + 6)
			}
			// Field-wise init: a composite literal would zero and copy
			// the whole struct (duffcopy) per hazardous word; cm/s/hp
			// are written by the park path before anything reads them.
			w := &sp.m2w[0]
			w.idx = base + k
			w.ia, w.ea, w.ib, w.eb = ia, ea, ib, eb
			w.va, w.vb = val[oaW+k], val[obW+k]
			w.n = n
			r := sp.merge2Simple(w, class, inv, dly)
			if r == mergeParked {
				// Pile-up: finish on the full three-stream algebra,
				// resuming from the frozen register state.
				r = sp.merge2Run(w, class, inv, dly)
			}
			if r == mergeMispredict {
				return false
			}
			sp.countSegment(w.idx, n, w.n)
			ends[base+k] = int32(w.n)
			n = w.n
		}
	}
	sp.specPatched += uint64(patched)
	return true
}

// noPending is the "no outstanding output event" sentinel for the
// fast path's pending-time register; real times are far below it.
const noPending = ^uint64(0)

// Merge outcomes: a word merged clean, its final waveform value
// disagreed with the settled second vector (the stripe replays on the
// scalar Simulator), or the fast path hit a pile-up and parked the
// word for the full three-stream algebra (merge2Run).
const (
	mergeOK = iota
	mergeMispredict
	mergeParked
)

// m2 is one hazardous 2-fan-in gate-word's merge state, frozen at the
// moment merge2Simple hit a pile-up: input stream cursors, running
// input values, the uncommitted-suffix window [cm, n), the last
// evaluated value s and the outstanding-lane union hp. The explicit
// handoff keeps each merge routine small enough to register-allocate
// cleanly — a fused two-word variant was measured ~20% slower because
// its ~24 live values spill on every iteration — and w.n doubles as
// the word's final segment end for the caller's countSegment pass.
type m2 struct {
	idx    int // gate-word plane index
	ia, ea int
	ib, eb int
	cm, n  int
	va, vb uint64
	s, hp  uint64
}

// merge2Simple is the single-pending fast path for hazardous 2-fan-in
// gate-words. A word needs the full arena algebra only when its output
// changes twice within one inertial window — a pulse pile-up, which is
// rare. Everything else carries at most
// one outstanding output event, held in two registers (pendT, pendM):
// an arrival past its time retires it into the arena, a re-evaluation
// inside the window cancels lanes by clearing register bits, and a
// fully swallowed pulse never reaches the arena at all — downstream
// merges see a strictly smaller stream than an event queue would
// carry. The merge tracks only the last evaluated value s and the
// pending mask: fresh lanes are d &^ pendM and cancelled lanes d & pendM
// for d = s ^ raw, and toggle counts are not touched here at all — the
// caller folds the word's finished arena segment into the counter
// planes afterward (countSegment). On a pile-up the word parks: all
// register state freezes into w and the caller finishes the merge on
// the full algebra (merge2Run), so detection costs nothing beyond the
// handoff. On mergeOK/mergeMispredict, w.n is the final segment end.
func (sp *Speculative) merge2Simple(w *m2, class uint8, inv uint64, dly uint64) int {
	ev := sp.ev
	idx := w.idx
	ia, ea, ib, eb := w.ia, w.ea, w.ib, w.eb
	va, vb := w.va, w.vb
	n := w.n
	s := sp.val[idx] ^ inv // last evaluated raw value (inverted space)
	pendT := noPending
	var pendM uint64
	for ia < ea && ib < eb {
		ta, tb := ev[ia], ev[ib]
		t := ta
		if tb < t {
			t = tb
		}
		// A pending event firing before this arrival retires into the
		// arena (commit order is arrival order, so segment times stay
		// strictly increasing). The store is unconditional into reserved
		// scratch; the watermark only advances on a real commit, and the
		// register reset is mask arithmetic (noPending is all-ones, so
		// OR-ing the commit mask in IS the reset) — no branch to
		// mispredict on glitchy, commit-heavy words.
		ev[n] = pendT
		ev[n+1] = pendM
		var ci uint64
		if pendT <= t {
			ci = 1
		}
		n += int(ci) * 2
		pendT |= -ci
		pendM &^= -ci
		var ai, bi uint64
		if ta == t {
			ai = 1
		}
		if tb == t {
			bi = 1
		}
		va ^= ev[ia+1] & -ai
		vb ^= ev[ib+1] & -bi
		ia += int(ai) * 2
		ib += int(bi) * 2
		var raw uint64
		switch class {
		case 0:
			raw = va & vb
		case 1:
			raw = va | vb
		default:
			raw = va ^ vb
		}
		d := s ^ raw
		s = raw
		fresh := d &^ pendM
		keep := pendM &^ d
		// The pile-up test is one flag: fresh != 0 && keep != 0 would
		// branch on fresh != 0, true on most iterations and hard to
		// predict.
		var fi, ki uint64
		if fresh != 0 {
			fi = 1
		}
		if keep != 0 {
			ki = 1
		}
		if fi&ki != 0 {
			// Pile-up: this word now needs two outstanding events.
			// Materialize the pending set as an uncommitted arena
			// suffix and park — the full algebra resumes from this
			// exact point; nothing is recomputed.
			cm := n
			ev[n] = pendT
			ev[n+1] = keep
			ev[n+2] = t + dly
			ev[n+3] = fresh
			n += 4
			w.ia, w.ea, w.ib, w.eb = ia, ea, ib, eb
			w.va, w.vb = va, vb
			w.cm, w.n = cm, n
			w.s, w.hp = s, keep|fresh
			return mergeParked
		}
		// New pulse: pending becomes (t+dly, fresh); no pulse: the
		// survivors of cancellation stay pending. Mask-select both.
		pendT ^= (pendT ^ (t + dly)) & -fi
		pendM = keep ^ ((keep ^ fresh) & -fi)
	}
	if ib < eb {
		ia, ea, va, vb = ib, eb, vb, va
	}
	for ia < ea {
		t := ev[ia]
		ev[n] = pendT
		ev[n+1] = pendM
		var ci uint64
		if pendT <= t {
			ci = 1
		}
		n += int(ci) * 2
		pendT |= -ci
		pendM &^= -ci
		va ^= ev[ia+1]
		ia += 2
		var raw uint64
		switch class {
		case 0:
			raw = va & vb
		case 1:
			raw = va | vb
		default:
			raw = va ^ vb
		}
		d := s ^ raw
		s = raw
		fresh := d &^ pendM
		keep := pendM &^ d
		var fi, ki uint64
		if fresh != 0 {
			fi = 1
		}
		if keep != 0 {
			ki = 1
		}
		if fi&ki != 0 {
			// Pile-up mid-drain: park with an empty second stream
			// (vb is the exhausted stream's final value).
			cm := n
			ev[n] = pendT
			ev[n+1] = keep
			ev[n+2] = t + dly
			ev[n+3] = fresh
			n += 4
			w.ia, w.ea, w.ib, w.eb = ia, ea, 0, 0
			w.va, w.vb = va, vb
			w.cm, w.n = cm, n
			w.s, w.hp = s, keep|fresh
			return mergeParked
		}
		pendT ^= (pendT ^ (t + dly)) & -fi
		pendM = keep ^ ((keep ^ fresh) & -fi)
	}
	// Flush the final pending event, if any survived cancellation.
	if pendM != 0 {
		ev[n] = pendT
		ev[n+1] = pendM
		n += 2
	}
	w.n = n
	if s^inv != sp.aux[idx] {
		return mergeMispredict
	}
	return mergeOK
}

// merge2Run is the full inertial algebra for a hazardous 2-fan-in
// gate-word, entered mid-word from merge2Simple's parked state. The
// word's own uncommitted output events — the arena suffix from w.cm to
// the word's watermark w.n, whose lane union is w.hp — retire in a
// short pop loop at the top of each input-driven iteration: everything
// firing at or before the arrival commits before the gate is
// re-evaluated (commit-before-evaluate at ts ≤ t), and because a
// retire-only merge step would be algebraically inert (inputs
// unchanged ⇒ d = 0), batching expiries this way only removes dead
// iterations from the serial load→min→advance chain. Only the last
// evaluated value s and the outstanding union hp are tracked:
// fresh = d &^ hp, cancel = d & hp, hp ^= d. Cancellation
// pops lanes from the uncommitted suffix backward (disjoint masks,
// strictly increasing times); emission is branchless into reserved
// scratch (the watermark only advances on a real event). Toggle counts
// are the caller's countSegment post-pass; no counter state lives here.
func (sp *Speculative) merge2Run(w *m2, class uint8, inv uint64, dly uint64) int {
	ev := sp.ev
	idx := w.idx
	ia, ea, ib, eb := w.ia, w.ea, w.ib, w.eb
	va, vb := w.va, w.vb
	cm, n := w.cm, w.n
	s, hp := w.s, w.hp
	ev[n] = noPending // watermark sentinel: bounds the retire scans below
	for ia < ea && ib < eb {
		ta, tb := ev[ia], ev[ib]
		t := ta
		if tb < t {
			t = tb
		}
		// Retire every own event that fires at or before this arrival.
		// A retire-only merge iteration is algebraically inert (inputs
		// unchanged ⇒ d = 0), so batching retirement here removes those
		// iterations from the load→min→advance critical chain instead
		// of paying a full merge step per expiry.
		cm, hp = retire2(ev, cm, hp, t)
		for ev[cm] <= t {
			hp &^= ev[cm+1]
			cm += 2
		}
		var ai, bi uint64
		if ta == t {
			ai = 1
		}
		if tb == t {
			bi = 1
		}
		va ^= ev[ia+1] & -ai
		vb ^= ev[ib+1] & -bi
		ia += int(ai) * 2
		ib += int(bi) * 2
		var raw uint64
		switch class {
		case 0:
			raw = va & vb
		case 1:
			raw = va | vb
		default:
			raw = va ^ vb
		}
		d := s ^ raw
		s = raw
		fresh := d &^ hp
		if cancel := d & hp; cancel != 0 {
			for j := n - 1; j > cm && cancel != 0; j -= 2 {
				cx := ev[j] & cancel
				ev[j] &^= cx
				cancel &^= cx
			}
		}
		hp ^= d
		ev[n] = t + dly
		ev[n+1] = fresh
		var ei uint64
		if fresh != 0 {
			ei = 2
		}
		n += int(ei)
		ev[n] = noPending // restore the sentinel (overwrites scratch when ei == 0)
	}
	// Drain the surviving input stream (and/or/xor are commutative, so
	// swap b into a's seat if it is the one left).
	if ib < eb {
		ia, ea, va, vb = ib, eb, vb, va
	}
	for ia < ea {
		ta := ev[ia]
		cm, hp = retire2(ev, cm, hp, ta)
		for ev[cm] <= ta {
			hp &^= ev[cm+1]
			cm += 2
		}
		va ^= ev[ia+1]
		ia += 2
		var raw uint64
		switch class {
		case 0:
			raw = va & vb
		case 1:
			raw = va | vb
		default:
			raw = va ^ vb
		}
		d := s ^ raw
		s = raw
		fresh := d &^ hp
		if cancel := d & hp; cancel != 0 {
			for j := n - 1; j > cm && cancel != 0; j -= 2 {
				cx := ev[j] & cancel
				ev[j] &^= cx
				cancel &^= cx
			}
		}
		hp ^= d
		ev[n] = ta + dly
		ev[n+1] = fresh
		var ei uint64
		if fresh != 0 {
			ei = 2
		}
		n += int(ei)
		ev[n] = noPending
	}
	// No flush needed: the remaining suffix fires after the last arrival
	// and is already in the arena; countSegment picks it up.
	w.n = n
	if s^inv != sp.aux[idx] {
		return mergeMispredict
	}
	return mergeOK
}

// retire2 makes merge2Run's first two own-event retirements at arrival
// time t without a branch: each step compares once and retires the event
// at cm, or nothing. On stream-timed's C3540 an arrival retires no
// event 45% of the time, one 38% and two 14%, so a loop's exit
// mispredicts on most arrivals; the loop after these steps runs only
// for a third. The ev[n] = noPending sentinel stops both steps at the
// word's end, and ev[n+1] past it is the emission's reserved scratch.
func retire2(ev []uint64, cm int, hp, t uint64) (int, uint64) {
	var r uint64
	if ev[cm] <= t {
		r = 1
	}
	hp &^= ev[cm+1] & -r
	cm += int(r) * 2
	r = 0
	if ev[cm] <= t {
		r = 1
	}
	hp &^= ev[cm+1] & -r
	cm += int(r) * 2
	return cm, hp
}

// countSegment folds a completed word's arena segment into its counter
// planes. Deferring counts to this straight post-pass keeps them out of
// the merge loops entirely: every surviving event in the segment is a
// real committed toggle, and cancelled events carry a zero mask, which
// makes every operation below a no-op for them — no branch needed. Four
// count bits live in registers (counts to 15); only a lane's count ≥ 16
// carries into the deep planes mid-pass.
func (sp *Speculative) countSegment(idx, e0, e1 int) {
	ev := sp.ev
	var b0c, b1c, q2, q3 uint64
	e := e0
	// Pairwise 3:2 compression: fold two event masks per iteration. The
	// weight-2 carries c = m1&m2 (both events hit) and c1 = b0c&(m1^m2)
	// (one hit lands on an odd count) are disjoint by construction —
	// c needs m1^m2 = 0 where c1 needs m1^m2 = 1 — so one XOR into the
	// bit-1 plane absorbs both, halving the serial carry chain.
	for ; e+4 <= e1; e += 4 {
		m1, m2 := ev[e+1], ev[e+3]
		s := m1 ^ m2
		cw2 := (m1 & m2) | (b0c & s)
		b0c ^= s
		cc := b1c & cw2
		b1c ^= cw2
		c3 := q2 & cc
		q2 ^= cc
		if c3 != 0 {
			if c4 := q3 & c3; c4 != 0 {
				sp.deepCarry(idx, 4, c4)
			}
			q3 ^= c3
		}
	}
	for ; e < e1; e += 2 {
		m := ev[e+1]
		c := b0c & m
		b0c ^= m
		cc := b1c & c
		b1c ^= c
		c3 := q2 & cc
		q2 ^= cc
		if c3 != 0 {
			if c4 := q3 & c3; c4 != 0 {
				sp.deepCarry(idx, 4, c4)
			}
			q3 ^= c3
		}
	}
	sp.res.planes[idx] = b0c
	sp.res.planes[sp.stride+idx] = b1c
	if q2|q3 != 0 {
		sp.deepCarry(idx, 2, q2)
		sp.deepCarry(idx, 3, q3)
	}
}

// mergeN is the ≥3-fan-in generalization: a sentinel-scan k-way merge
// with the same s/hp algebra, commit rules, and misprediction check as
// merge2Run (counts are likewise the caller's countSegment pass).
func (sp *Speculative) mergeN(idx, slot, k int, dly int64, n int) (int, bool) {
	p := sp.p
	aw := sp.aw
	lo, hi := int(p.faninOff[slot]), int(p.faninOff[slot+1])
	nf := hi - lo
	if cap(sp.wi) < nf {
		sp.wi = make([]int32, nf)
		sp.we = make([]int32, nf)
		sp.wv = make([]uint64, nf)
	}
	wi, we, wv := sp.wi[:nf], sp.we[:nf], sp.wv[:nf]
	total := 0
	for i := 0; i < nf; i++ {
		f := int(p.faninIdx[lo+i]) * aw
		wi[i] = sp.offs[f+k]
		we[i] = sp.ends[f+k]
		wv[i] = sp.val[f+k]
		total += int(we[i] - wi[i])
	}
	if total == 0 {
		return n, true
	}
	if n+total+2 > len(sp.ev) {
		sp.growArena(n + total + 2)
	}
	ev := sp.ev
	var class uint8
	var inv uint64
	switch p.fop[slot] {
	case fopAndN:
		class, inv = 0, 0
	case fopNandN:
		class, inv = 0, ^uint64(0)
	case fopOrN:
		class, inv = 1, 0
	case fopNorN:
		class, inv = 1, ^uint64(0)
	case fopXorN:
		class, inv = 2, 0
	default: // fopXnorN
		class, inv = 2, ^uint64(0)
	}
	s := sp.val[idx] ^ inv
	var hp uint64
	cm := n
	nextT := noPending
	const sentinel = ^uint64(0)
	for {
		t := sentinel
		for i := 0; i < nf; i++ {
			if wi[i] < we[i] && ev[wi[i]] < t {
				t = ev[wi[i]]
			}
		}
		if t == sentinel {
			break
		}
		if nextT <= t {
			for cm < n && ev[cm] <= t {
				hp &^= ev[cm+1]
				cm += 2
			}
			nextT = noPending
			if cm < n {
				nextT = ev[cm]
			}
		}
		for i := 0; i < nf; i++ {
			if wi[i] < we[i] && ev[wi[i]] == t {
				wv[i] ^= ev[wi[i]+1]
				wi[i] += 2
			}
		}
		raw := wv[0]
		switch class {
		case 0:
			for i := 1; i < nf; i++ {
				raw &= wv[i]
			}
		case 1:
			for i := 1; i < nf; i++ {
				raw |= wv[i]
			}
		default:
			for i := 1; i < nf; i++ {
				raw ^= wv[i]
			}
		}
		d := s ^ raw
		s = raw
		fresh := d &^ hp
		if cancel := d & hp; cancel != 0 {
			for j := n - 1; j > cm && cancel != 0; j -= 2 {
				cx := ev[j] & cancel
				ev[j] &^= cx
				cancel &^= cx
			}
		}
		hp ^= d
		if fresh != 0 {
			if cm == n {
				nextT = t + uint64(dly)
			}
			ev[n] = t + uint64(dly)
			ev[n+1] = fresh
			n += 2
		}
	}
	if s^inv != sp.aux[idx] {
		return n, false
	}
	return n, true
}

// deepCarry ripples a carry into the lazily grown deep planes starting
// at the given level (level l holds count bit l) and records the
// spilling lanes in the per-word overflow union, which lets Count skip
// the deep planes for the words that never reach a count of 4. It enters past the count bits that live in registers until a
// gate-word completes (levels 2 to 4 from countSegment) or that replay
// wrote directly.
func (sp *Speculative) deepCarry(idx, lvl int, carry uint64) {
	if carry == 0 {
		return
	}
	res := &sp.res
	res.ovAny[idx] |= carry
	stride := sp.stride
	for j := idx + lvl*stride; carry != 0; j += stride {
		for j >= len(res.planes) {
			res.planes = append(res.planes, make([]uint64, stride)...)
			res.levels++
		}
		v := res.planes[j]
		res.planes[j] = v ^ carry
		carry &= v
	}
}

// growArena resizes the waveform arena to hold at least need doubled
// entries, preserving the emitted prefix. Doubling keeps growth
// amortized; after the first few stripes the high-water mark sticks and
// runs stop allocating.
func (sp *Speculative) growArena(need int) {
	c := cap(sp.ev) * 2
	if c < need {
		c = need
	}
	if c < 2048 {
		c = 2048
	}
	ne := make([]uint64, c)
	copy(ne, sp.ev)
	sp.ev = ne
}
