package sim

import "math/bits"

// Speculative is the settle-then-patch timed executor: a second execution
// strategy beside the Striped event wheel, built for the power path,
// where the wheel is ~99% of a timed stripe's cost. power.Evaluator runs
// every packed batch on it.
//
// Phase 1 settles both input vectors of a stripe through the straight-
// line zero-delay kernel (borrowed from the owned Striped executor) —
// ~0.5% of a wheel run — giving every gate-word its final value and its
// activity mask (the settle diff). Phase 2 walks the levelized slot
// order exactly once and *patches* toggle counts in place instead of
// firing a calendar:
//
//   - Slots outside the compile-time hazard frontier (Program.arrT ≥ 0)
//     can toggle at most once, at a statically known time, so their
//     toggle count is the settle diff itself — no event machinery at
//     all, just one plane store and one emitted waveform event for
//     their fan-outs.
//   - Hazardous slots run a per-(gate, word) waveform merge: each
//     fan-in's output transitions form a sorted (time, lane-mask) event
//     list in a shared arena, and a k-way merge replays the wheel's
//     single-pending-event inertial algebra (fresh/cancel masks,
//     commit-before-evaluate at ts ≤ t) over the merged arrival times.
//     The gate is processed once, not once per calendar entry — the
//     restructure that removes the wheel's ~30× re-evaluation of every
//     live gate per 512-lane stripe.
//   - A dynamic fast path catches hazard-eligible gate-words whose
//     merged arrivals collapse to a single time this stripe (one more
//     single-transition patch, at stripe granularity).
//
// The waveform value after the final commit must equal the settled
// second-vector value in every lane; any disagreement is a
// misprediction, and the whole stripe falls back to the full Striped
// event wheel, so results stay bit-identical to the scalar oracle by
// construction even if an invariant is ever violated. Both phases write
// the same counter planes and settle times as the wheel and share its
// result aggregation (finalizeTimed), so StripedResult consumers —
// power accumulation, differential tests, Toggles — cannot tell the
// strategies apart.
//
// Zero-delay programs delegate to the settle kernel unchanged (it
// already is the fast path). A Speculative owns mutable run state and is
// not safe for concurrent use; build one per goroutine over a shared
// immutable Program, exactly like Striped.
type Speculative struct {
	// LaneStats mirrors Striped.LaneStats: per-lane SettleTime/Events
	// aggregation, cleared by the power path.
	LaneStats bool

	p  *Program
	st *Striped // settle kernel, counter planes, result, and fallback

	val []uint64 // settle(v1): initial values and merge stream seeds
	aux []uint64 // settle(v2): predicted final values (mispredict check)

	// The waveform arena: one (time, mask) pair per applied output
	// transition, interleaved at ev[2i] / ev[2i+1] so consuming an event
	// touches one cache line instead of two parallel streams. Segments
	// are per (slot, word), slot-major then word: offs[f·aw+k] is the
	// doubled arena offset of fan-in f's word-k events, and the segment
	// runs to offs[f·aw+k+1]. Kept at len == cap with an explicit write
	// index so the merge inner loops index a local slice with no append
	// machinery; grows to the circuit's peak event count, after which
	// runs are allocation-free. Times are non-negative and bounded by
	// depth · maxNorm, so they store and compare as uint64 exactly.
	ev   []uint64
	n    int // doubled watermark: events occupy ev[:n]
	offs []int32
	// ends[w] is word w's doubled segment end. Separate from offs so
	// segments need not be contiguous: paired merges emit into disjoint
	// regions of the arena, leaving dead space between segments that
	// every consumer (fan-in reads, countSegment, laneSettle) skips by
	// reading [offs[w], ends[w]) instead of [offs[w], offs[w+1]).
	ends []int32
	// m2w is the parked-merge scratch slot.
	m2w [1]m2

	// ≥3-fan-in merge scratch: stream cursors, ends, and running values.
	wi, we []int32
	wv     []uint64

	specStripes   uint64
	specPatched   uint64
	specFallbacks uint64
}

// SpecStats is a point-in-time snapshot of a Speculative executor's
// cumulative speculation counters.
type SpecStats struct {
	// Stripes counts timed stripes attempted speculatively (zero-delay
	// stripes never speculate — the settle kernel already is the fast
	// path). Fallbacks counts the subset that mispredicted and re-ran
	// on the full event wheel; PatchedWords the gate-words whose toggle
	// counts were patched straight from the settle diff (static
	// hazard-free slots plus dynamic single-arrival-time words) without
	// any event-merge work.
	Stripes, PatchedWords, Fallbacks uint64
}

// Add accumulates other into s, the merge direction used when draining
// per-worker executors into a run-level total.
func (s *SpecStats) Add(other SpecStats) {
	s.Stripes += other.Stripes
	s.PatchedWords += other.PatchedWords
	s.Fallbacks += other.Fallbacks
}

// NewSpeculative builds a settle-then-patch executor for the program.
// Buffers grow lazily to the circuit's peak waveform event count, after
// which runs are allocation-free (the AllocsPerRun guards cover this
// path like the others).
func NewSpeculative(p *Program) *Speculative {
	st := NewStriped(p)
	return &Speculative{LaneStats: true, p: p, st: st}
}

// Program returns the compiled program this executor runs.
func (sp *Speculative) Program() *Program { return sp.p }

// Stats returns the cumulative speculation counters.
func (sp *Speculative) Stats() SpecStats {
	return SpecStats{
		Stripes:      sp.specStripes,
		PatchedWords: sp.specPatched,
		Fallbacks:    sp.specFallbacks,
	}
}

// Run simulates stripe number `stripe` of the packed batch with the
// settle-then-patch strategy and returns the per-lane results, under
// Striped.Run's exact contract (same validation, same stripe addressing,
// same StripedResult aliasing rules — the result is the owned Striped's).
func (sp *Speculative) Run(pp *PackedPairs, stripe int) *StripedResult {
	st := sp.st
	st.LaneStats = sp.LaneStats
	b0 := st.prepare(pp, stripe)
	if sp.p.zeroDelay {
		st.runZero(pp, b0)
		return &st.res
	}
	sp.specStripes++
	if !sp.wave(pp, b0) {
		sp.specFallbacks++
		st.runTimed(pp, b0)
		return &st.res
	}
	st.finalizeTimed()
	return &st.res
}

// wave is the speculative phase-2 kernel. It fills the owned Striped's
// counter planes, overflow unions, and (under LaneStats) settle times,
// and reports false on a misprediction — leaving partially written
// planes for the fallback's resetResult to clear.
func (sp *Speculative) wave(pp *PackedPairs, b0 int) bool {
	st := sp.st
	p := sp.p
	aw := st.aw
	stride := st.stride
	if cap(sp.val) < stride {
		sp.val = make([]uint64, stride)
		sp.aux = make([]uint64, stride)
		sp.offs = make([]int32, stride+1)
		sp.ends = make([]int32, stride+1)
	}
	sp.val = sp.val[:stride]
	sp.aux = sp.aux[:stride]
	sp.offs = sp.offs[:stride+1]
	sp.ends = sp.ends[:stride+1]
	st.resetResult()

	st.loadInputs(sp.val, pp.In1, b0)
	st.settle(sp.val)
	st.loadInputs(sp.aux, pp.In2, b0)
	st.settle(sp.aux)

	val, aux := sp.val, sp.aux
	offs, ends := sp.offs, sp.ends
	n := 0
	patched := 0
	for s := 0; s < p.nLive; s++ {
		op := p.fop[s]
		base := s * aw
		if op == fopInput {
			// Inputs flip at t = 0 (the wheel's second-vector
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
					st.res.planes[base+k] = d
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
					st.res.planes[base+k] = dw
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
		fab := st.fabRun[s]
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
					st.res.planes[base+k] = dw
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
	sp.n = n
	sp.specPatched += uint64(patched)
	if st.LaneStats {
		sp.laneSettle()
	}
	return true
}

// laneSettle recovers per-lane settle times from the retained arena: a
// lane's settle under a delay model is the latest commit time of any
// transition that reached it, and the arena holds every applied
// transition (cancelled ones carry a zero mask). Scanning each
// (slot, word) segment backward — emission times within a segment are
// strictly increasing — touches each lane at most once per segment. Run
// only under LaneStats, which keeps every stat branch out of the merge
// hot loops; the power path never pays for it.
func (sp *Speculative) laneSettle() {
	st := sp.st
	snorm := st.settleNorm
	ev := sp.ev
	offs := sp.offs
	aw := st.aw
	for base := 0; base < st.stride; base += aw {
		for k := 0; k < aw; k++ {
			idx := base + k
			rem := ^uint64(0)
			for e := int(sp.ends[idx]) - 2; e >= int(offs[idx]); e -= 2 {
				m := ev[e+1] & rem
				if m == 0 {
					continue
				}
				rem &^= m
				ts := int64(ev[e])
				for ; m != 0; m &= m - 1 {
					l := k<<6 + bits.TrailingZeros64(m)
					if ts > snorm[l] {
						snorm[l] = ts
					}
				}
			}
		}
	}
}

// noPending is the "no outstanding output event" sentinel for the
// fast path's pending-time register; real times are far below it.
const noPending = ^uint64(0)

// Merge outcomes: a word merged clean, its final waveform value
// disagreed with the settled second vector (stripe-level fallback to
// the full event wheel), or the fast path hit a pile-up and parked the
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
// changes twice within one inertial window — a pulse pile-up, which the
// wheel's cancel counters show is rare. Everything else carries at most
// one outstanding output event, held in two registers (pendT, pendM):
// an arrival past its time retires it into the arena, a re-evaluation
// inside the window cancels lanes by clearing register bits, and a
// fully swallowed pulse never reaches the arena at all — downstream
// merges see a strictly smaller stream than the wheel's calendar
// carried. The merge tracks only the last evaluated value s and the
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
		var fi uint64
		if fresh != 0 {
			fi = 1
		}
		if fresh != 0 && keep != 0 {
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
		var fi uint64
		if fresh != 0 {
			fi = 1
		}
		if fresh != 0 && keep != 0 {
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
	st := sp.st
	st.res.planes[idx] = b0c
	st.res.planes[st.stride+idx] = b1c
	if q2|q3 != 0 {
		sp.deepCarry(idx, 2, q2)
		sp.deepCarry(idx, 3, q3)
	}
}

// mergeN is the ≥3-fan-in generalization: a sentinel-scan k-way merge
// with the same s/hp algebra, commit rules, and misprediction check as
// merge2Resume (counts are likewise the caller's countSegment pass).
func (sp *Speculative) mergeN(idx, slot, k int, dly int64, n int) (int, bool) {
	st := sp.st
	p := sp.p
	aw := st.aw
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

// deepCarry spills a carry into the lazily grown deep planes starting at
// the given level — the merge's analogue of spillToggles, entering past
// the count bits that live in registers until a gate-word completes
// (level 2 from the full merges, levels 2 and 3 from the simple path's
// final spill).
func (sp *Speculative) deepCarry(idx, lvl int, carry uint64) {
	if carry == 0 {
		return
	}
	st := sp.st
	res := &st.res
	res.ovAny[idx] |= carry
	stride := st.stride
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
