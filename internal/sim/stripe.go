package sim

import (
	"fmt"
	"math/bits"
)

// Striped executes a compiled Program over stripes of W 64-lane words —
// up to 512 vector pairs per calendar pass. Per-gate delays are
// lane-invariant, so all W·64 lanes of a gate share one calendar slot,
// one bucket entry, and one occupancy bit, and the per-gate dispatch
// (opcode switch, fan-in resolution, delay lookup) amortizes across the
// whole stripe. Within a
// delta cycle the engine tracks which words of each changed gate actually
// toggled and re-evaluates fan-outs only on that word mask — a word whose
// fan-ins did not change would recompute its previous next-value and
// no-op, so skipping it is exact, not approximate.
//
// All engine state is laid out at the *active* word count of the current
// run (aw ≤ W), not the compiled capacity: a 5-block stripe of a W=8
// program packs values, pending masks, calendar rows, and toggle planes
// at 5 words per gate, so every fetched cache line is fully used and the
// calendar shrinks by W/aw. The layout re-derives per run from one
// integer, and all calendar state is self-cleaning (all-zero between
// runs), so reshaping is free and safe.
//
// Every lane's toggle counts, settle time, and event count are
// bit-identical to the scalar Simulator on that lane's vector pair, for
// any stripe width and any active word count (the differential tests
// enforce this on the zero, unit, fanout, and table models).
//
// A Striped owns mutable run state and is not safe for concurrent use;
// build one per goroutine over a shared immutable Program
// (power.Evaluator.Clone does this transparently).
type Striped struct {
	// LaneStats enables the per-lane SettleTime/Events aggregates.
	// NewStriped sets it; the power path clears it, because cycle energy
	// needs only the toggle planes — the striped analogue of dead-output
	// elimination applied to the result aggregation.
	LaneStats bool

	p      *Program
	stride int // nLive · aw: words per value plane / per calendar row

	values []uint64 // [slot·aw + k]: current value words
	aux    []uint64 // second settle plane (zero-delay kernel only)

	// fabRun is the program's fab table with both fan-in slot ids
	// pre-multiplied by the current active word count — rebuilt only when
	// aw changes, so steady-state evaluation indexes values directly.
	fabRun []uint64
	lastAW int

	// pend interleaves per-slot pending state in 2·aw-word blocks:
	// pend[slot·2aw + k] is word k's has-pending mask and
	// pend[slot·2aw + aw + k] its pending target value, so the evaluate
	// fast path reads and writes one gate-sized span instead of two
	// parallel planes.
	pend []uint64

	// cal is the calendar: one append arena per ring position, holding
	// (1+aw)-word entries of [gate id, lane-mask words]. Entries are dense
	// in firing order, so scheduling is a sequential append and firing a
	// sequential scan — the calendar's footprint tracks the outstanding
	// event count instead of nLive·ringW·W words. Each (gate, time) entry
	// is written by exactly one evaluate call (one delta cycle per tick,
	// fan-out dedup within it, distinct target times while outstanding),
	// which is what makes append-only scheduling sound.
	//
	// occ is the per-gate occupancy bitmap of calendar entries (one bit per
	// (gate, time) — all words share it, delays being lane-invariant).
	// Cancellation finds the gate's entry by scanning the target arena
	// (removals are ~8× rarer than schedules, and one arena is a few
	// hundred sequential bytes); a fully drained entry stays behind and is
	// skipped at fire time by its all-zero words.
	cal  [][]uint64
	occ  []uint64
	live int

	// hint[f] is the ring position and arena offset of slot f's most
	// recently scheduled entry, packed s<<20 | off. Nearly every gate has
	// exactly one outstanding event, so cancellation usually jumps
	// straight to its entry instead of scanning the arena; the hint is
	// validated (bounds, entry alignment, gate id) before use, so stale
	// values from earlier runs or other shapes merely fall back to the
	// scan.
	hint []uint32

	evalStamp []int64 // fanout dedup: last stamp each slot was touched at
	stamp     int64
	fanoutWM  []uint8 // accumulated word mask per slot (valid at stamp)
	evalList  []int32 // scratch: dedup'd fanouts of the current delta cycle

	changed    []int32 // scratch: slots applied in the current delta cycle
	changedWM  []uint8
	settleNorm []int64 // per-lane last-change time, normalized units

	aw  int // active words of the current stripe (1..W)
	res StripedResult
}

// StripedResult holds the per-lane outcomes of one Striped.Run, in the
// shape of W·64 scalar Results. Lane addressing is (word k, lane l)
// = pair k·64+l of the stripe; lanes beyond the packed batch stay inert.
//
// Aliasing contract: the result and every slice in it are owned by the
// engine and overwritten by the next Run on the same Striped — hold no
// reference across runs. Toggles
// copies counts out into a caller-owned slice and is the safe way to keep
// them, exactly like Result.CopyToggles on the scalar path.
type StripedResult struct {
	// W is the stripe capacity in words; AW the words active this run.
	// Per-slot arrays are packed at AW words per slot.
	W, AW int
	// NSlots is the number of compiled slots; NGates the source circuit's
	// gate count (Toggles expands back to this indexing). Gates maps
	// slot → original gate id, ascending; it aliases the immutable
	// Program and is valid indefinitely.
	NSlots, NGates int
	Gates          []int32
	// Any[slot·AW+k] is the mask of word-k lanes where the slot's gate
	// toggled at least once during the cycle; Multi the lanes where it
	// toggled more than once (nil on the glitch-free zero-delay kernel).
	Any   []uint64
	Multi []uint64
	// SettleTime[k·64+l] is lane (k,l)'s last value change in ps, and
	// Events[k·64+l] its total applied value changes — only populated
	// when the engine's LaneStats is set.
	SettleTime []int64
	Events     []int

	// planes holds the per-lane toggle counters as bit planes, level-major
	// at [lvl·stride + slot·AW + k] (level l = count bit l); ovAny is the
	// per-word union of every level ≥ 2 — the lanes whose counts reached
	// 4, which is what lets Count and the power accumulation settle
	// everything below that from the first two planes alone.
	planes []uint64
	ovAny  []uint64
	levels int
	stride int
	zero   bool // zero-delay kernel: counts are 0/1, encoded in Any alone
}

// Count returns the toggle count of the gate at slot in lane (word, lane)
// — the per-lane equivalent of Result.Toggles[g].
func (r *StripedResult) Count(slot, word, lane int) int32 {
	idx := slot*r.AW + word
	if r.zero {
		return int32(r.Any[idx] >> uint(lane) & 1)
	}
	if r.ovAny[idx]>>uint(lane)&1 != 0 {
		var n int32
		for k := 0; k < r.levels; k++ {
			n |= int32(r.planes[k*r.stride+idx]>>uint(lane)&1) << uint(k)
		}
		return n
	}
	// Count ≤ 3: the first two planes are the whole number.
	n := int32(r.planes[idx] >> uint(lane) & 1)
	if r.levels > 1 {
		n |= int32(r.planes[r.stride+idx]>>uint(lane)&1) << 1
	}
	return n
}

// CountPlanes returns word-wide views of the toggle counters, laid out
// like Any: b0[slot·AW+k] is count bit 0 of word k's lanes and
// ov[slot·AW+k] the lanes whose counts overflow into the ≥ 4 range.
// Multi lanes outside ov therefore count exactly 2 + their b0 bit — the
// word-parallel shortcut the power accumulation uses instead of per-lane
// Count walks. Both alias engine state under the aliasing contract
// above. Zero-delay results have no counters (their counts live in Any
// alone), so both are nil there.
func (r *StripedResult) CountPlanes() (b0, ov []uint64) {
	if r.zero || r.levels == 0 {
		return nil, nil
	}
	return r.planes[:r.stride], r.ovAny[:r.stride]
}

// MultiMask returns the lanes of word where the slot's gate toggled more
// than once (the glitching lanes); always zero for the glitch-free
// zero-delay kernel.
func (r *StripedResult) MultiMask(slot, word int) uint64 {
	if r.zero {
		return 0
	}
	return r.Multi[slot*r.AW+word]
}

// Toggles expands one lane's per-gate toggle counts into dst (grown as
// needed), indexed by original gate id like the scalar Result.Toggles —
// eliminated (dead) gates read zero. The returned slice is caller-owned:
// unlike Any/SettleTime/Events it does not alias engine state and
// survives subsequent Run calls.
func (r *StripedResult) Toggles(word, lane int, dst []int32) []int32 {
	if cap(dst) < r.NGates {
		dst = make([]int32, r.NGates)
	}
	dst = dst[:r.NGates]
	for g := range dst {
		dst[g] = 0
	}
	for s, gid := range r.Gates {
		dst[gid] = r.Count(s, word, lane)
	}
	return dst
}

// NewStripedResult builds the result a run of aw words would leave for
// the per-lane toggle counts counts[slot·aw+k][lane]: a timed run's, or
// with zeroDelay a zero-delay run's, whose counts must be 0 or 1. Slot s
// stands for gate s, and lane statistics are left out. Tests of result
// consumers use it to reach count patterns no circuit produces on demand.
func NewStripedResult(aw int, counts [][64]uint8, zeroDelay bool) *StripedResult {
	n := len(counts)
	if aw < 1 || n%aw != 0 {
		panic(fmt.Sprintf("sim: %d count words do not split into %d-word slots", n, aw))
	}
	r := &StripedResult{W: aw, AW: aw, NSlots: n / aw, NGates: n / aw,
		Gates: make([]int32, n/aw), Any: make([]uint64, n), stride: n, zero: zeroDelay}
	for s := range r.Gates {
		r.Gates[s] = int32(s)
	}
	if !zeroDelay {
		r.levels = 8 // one plane per bit of a uint8 count
		r.planes = make([]uint64, r.levels*n)
		r.Multi = make([]uint64, n)
		r.ovAny = make([]uint64, n)
	}
	for i, word := range counts {
		for l, c := range word {
			if c == 0 {
				continue
			}
			bit := uint64(1) << uint(l)
			r.Any[i] |= bit
			if zeroDelay {
				if c > 1 {
					panic(fmt.Sprintf("sim: zero-delay count %d at word %d lane %d", c, i, l))
				}
				continue
			}
			for lvl := 0; c>>lvl != 0; lvl++ {
				if c>>lvl&1 != 0 {
					r.planes[lvl*n+i] |= bit
				}
			}
			if c >= 2 {
				r.Multi[i] |= bit
			}
			if c >= 4 {
				r.ovAny[i] |= bit
			}
		}
	}
	return r
}

// NewStriped builds an executor for the program. Value and pending state
// is allocated up front at full stripe capacity; the calendar arenas and
// toggle planes grow lazily to the circuit's peak outstanding-event count
// and toggle depth, after which runs are allocation-free. Runs then
// reshape the buffers to the stripe's active word count without
// reallocating.
func NewStriped(p *Program) *Striped {
	capWords := p.nLive * p.w
	st := &Striped{
		LaneStats:  true,
		p:          p,
		lastAW:     -1,
		values:     make([]uint64, capWords),
		fabRun:     make([]uint64, p.nLive),
		settleNorm: make([]int64, p.w*64),
	}
	st.res = StripedResult{
		W:          p.w,
		NSlots:     p.nLive,
		NGates:     p.nAll,
		Gates:      p.gates,
		Any:        make([]uint64, capWords),
		SettleTime: make([]int64, p.w*64),
		Events:     make([]int, p.w*64),
		zero:       p.zeroDelay,
	}
	if p.zeroDelay {
		st.aux = make([]uint64, capWords)
		return st
	}
	st.res.Multi = make([]uint64, capWords)
	st.pend = make([]uint64, 2*capWords)
	// Two full counter planes up front: every timed run has both count
	// bits resident, so the aggregation pass and CountPlanes never branch on
	// missing levels; deeper levels (counts ≥ 4) still grow lazily.
	st.res.planes = make([]uint64, 0, 2*capWords)
	st.res.ovAny = make([]uint64, capWords)
	st.cal = make([][]uint64, p.ringW)
	st.occ = make([]uint64, p.nLive*p.occW)
	st.hint = make([]uint32, p.nLive)
	st.evalStamp = make([]int64, p.nLive)
	st.fanoutWM = make([]uint8, p.nLive)
	return st
}

// zeroEntry seeds a freshly appended calendar entry (gate id patched in
// after the append, mask words start clear).
var zeroEntry [1 + maxStripeWords]uint64

// Program returns the compiled program this executor runs.
func (st *Striped) Program() *Program { return st.p }

// Run simulates stripe number `stripe` of the packed batch (blocks
// stripe·W … stripe·W+W−1, missing trailing blocks inert) and returns the
// per-lane results. Timed programs run the event-driven inertial kernel;
// zero-delay programs the two-pass settle kernel. The returned result is
// reused by the next call (see StripedResult's aliasing contract).
func (st *Striped) Run(pp *PackedPairs, stripe int) *StripedResult {
	b0 := st.prepare(pp, stripe)
	if st.p.zeroDelay {
		st.runZero(pp, b0)
	} else {
		st.runTimed(pp, b0)
	}
	return &st.res
}

// prepare validates the stripe, derives the active word count, and
// reshapes the run state to it — the shared preamble of Run and the
// speculative engine (which borrows this executor's settle kernel,
// counter planes, and result aggregation).
func (st *Striped) prepare(pp *PackedPairs, stripe int) int {
	p := st.p
	if pp.Inputs != p.c.NumInputs() {
		panic(fmt.Sprintf("sim: packed batch width %d, circuit has %d inputs", pp.Inputs, p.c.NumInputs()))
	}
	blocks := pp.Blocks()
	b0 := stripe * p.w
	if stripe < 0 || b0 >= blocks {
		panic(fmt.Sprintf("sim: stripe %d of %d-block batch", stripe, blocks))
	}
	aw := blocks - b0
	if aw > p.w {
		aw = p.w
	}
	st.aw = aw
	st.stride = p.nLive * aw
	st.res.AW = aw
	st.res.stride = st.stride
	if aw != st.lastAW {
		// Reshape: pre-multiply the fan-in slot ids by the new word count.
		a := uint64(aw)
		for s, fab := range p.fab {
			st.fabRun[s] = uint64(uint32(fab))*a | (fab>>32)*a<<32
		}
		// The pending buffer interleaves has/value words at the layout's
		// word count, and stale value words are harmless only while the
		// layout stands still: after a reshape they alias the new layout's
		// has positions, where a leftover bit fakes a pending event (and a
		// fake pending event whose stale target equals a lane's next value
		// swallows that lane's transition). One memset per shape change
		// restores the all-zero invariant; runs at a steady shape never pay
		// it. The calendar, occupancy, and values stay safe under any
		// layout — the arenas drain and occupancy zeroes by the end of each
		// run (a schedule hint is validated before use), and values are
		// fully rewritten by settle.
		for i := range st.pend {
			st.pend[i] = 0
		}
		// The aggregation pass assigns Any/Multi only inside the active
		// stride, so a shrink leaves the old shape's tail words behind;
		// clear them once here so lanes beyond the batch always read zero.
		for i := st.stride; i < len(st.res.Any); i++ {
			st.res.Any[i] = 0
		}
		for i := st.stride; i < len(st.res.Multi); i++ {
			st.res.Multi[i] = 0
		}
		st.lastAW = aw
	}
	return b0
}

// loadInputs gathers the stripe's input plane words (blocks b0…b0+aw−1)
// into the value array.
func (st *Striped) loadInputs(vals, plane []uint64, b0 int) {
	p := st.p
	aw := st.aw
	inp := p.c.NumInputs()
	for i, slot := range p.inputSlot {
		base := int(slot) * aw
		off := b0*inp + i
		for k := 0; k < aw; k++ {
			vals[base+k] = plane[off+k*inp]
		}
	}
}

// settle runs the straight-line settle program over the active words of
// vals: both vectors on the zero-delay kernel, the first vector's initial
// state on the timed one. Instructions are in levelized order; input
// slots carry no instruction.
func (st *Striped) settle(vals []uint64) {
	p := st.p
	aw := st.aw
	for s := 0; s < p.nLive; s++ {
		op := p.fop[s]
		if op == fopInput {
			continue
		}
		fab := st.fabRun[s]
		oa := int(uint32(fab))
		ob := int(fab >> 32)
		base := s * aw
		switch op {
		case fopAnd2:
			for k := 0; k < aw; k++ {
				vals[base+k] = vals[oa+k] & vals[ob+k]
			}
		case fopNand2:
			for k := 0; k < aw; k++ {
				vals[base+k] = ^(vals[oa+k] & vals[ob+k])
			}
		case fopOr2:
			for k := 0; k < aw; k++ {
				vals[base+k] = vals[oa+k] | vals[ob+k]
			}
		case fopNor2:
			for k := 0; k < aw; k++ {
				vals[base+k] = ^(vals[oa+k] | vals[ob+k])
			}
		case fopXor2:
			for k := 0; k < aw; k++ {
				vals[base+k] = vals[oa+k] ^ vals[ob+k]
			}
		case fopXnor2:
			for k := 0; k < aw; k++ {
				vals[base+k] = ^(vals[oa+k] ^ vals[ob+k])
			}
		default:
			st.settleWide(vals, s, base)
		}
	}
}

// settleWide is the ≥3-fan-in settle fallback, kept out of settle so the
// dominant fused cases stay compact.
func (st *Striped) settleWide(vals []uint64, s, base int) {
	p := st.p
	aw := st.aw
	lo, hi := int(p.faninOff[s]), int(p.faninOff[s+1])
	op := p.fop[s]
	for k := 0; k < aw; k++ {
		acc := vals[int(p.faninIdx[lo])*aw+k]
		switch op {
		case fopAndN, fopNandN:
			for _, fo := range p.faninIdx[lo+1 : hi] {
				acc &= vals[int(fo)*aw+k]
			}
			if op == fopNandN {
				acc = ^acc
			}
		case fopOrN, fopNorN:
			for _, fo := range p.faninIdx[lo+1 : hi] {
				acc |= vals[int(fo)*aw+k]
			}
			if op == fopNorN {
				acc = ^acc
			}
		case fopXorN, fopXnorN:
			for _, fo := range p.faninIdx[lo+1 : hi] {
				acc ^= vals[int(fo)*aw+k]
			}
			if op == fopXnorN {
				acc = ^acc
			}
		}
		vals[base+k] = acc
	}
}

// resetResult zeroes the per-run accounting and reshapes the toggle
// planes to the current stride (reinterpreting the existing buffer as
// however many full levels it holds). Calendar state (arenas, occ,
// pend-has, live) is self-cleaning across runs, including across
// active-word changes: a run only ever touches words of
// its own layout, and leaves every touched word cleared.
func (st *Striped) resetResult() {
	res := &st.res
	if st.stride > 0 {
		lv := cap(res.planes) / st.stride
		res.planes = res.planes[:lv*st.stride]
		res.levels = lv
	}
	for i := range res.planes {
		res.planes[i] = 0
	}
	if res.ovAny != nil {
		// Any/Multi need no pre-clearing — the aggregation pass assigns
		// every active word — and the pending masks are self-cleaning.
		ov := res.ovAny[:st.stride]
		for i := range ov {
			ov[i] = 0
		}
	}
	for i := range res.SettleTime {
		res.SettleTime[i] = 0
	}
	for i := range res.Events {
		res.Events[i] = 0
	}
	for i := range st.settleNorm {
		st.settleNorm[i] = 0
	}
}

// runZero is the compiled zero-delay kernel: settle both planes, diff.
// Glitch-free by contract, so Any alone encodes the 0/1 toggle counts.
func (st *Striped) runZero(pp *PackedPairs, b0 int) {
	st.resetResult()
	st.loadInputs(st.values, pp.In1, b0)
	st.settle(st.values)
	st.loadInputs(st.aux, pp.In2, b0)
	st.settle(st.aux)
	p := st.p
	aw := st.aw
	res := &st.res
	if !st.LaneStats {
		for i := 0; i < p.nLive*aw; i++ {
			res.Any[i] = st.values[i] ^ st.aux[i]
		}
		return
	}
	var cnt [maxStripeWords][24]uint64
	for s := 0; s < p.nLive; s++ {
		base := s * aw
		for k := 0; k < aw; k++ {
			d := st.values[base+k] ^ st.aux[base+k]
			res.Any[base+k] = d
			if d == 0 {
				continue
			}
			cw := &cnt[k]
			carry := d
			for l := 0; carry != 0; l++ {
				c0 := cw[l]
				cw[l] = c0 ^ carry
				carry = c0 & carry
			}
		}
	}
	for k := 0; k < aw; k++ {
		for l, cwv := range cnt[k] {
			for ; cwv != 0; cwv &= cwv - 1 {
				res.Events[k*64+bits.TrailingZeros64(cwv)] += 1 << uint(l)
			}
		}
	}
}

// runTimed is the event-driven striped kernel: settle at the first
// vectors, apply the second at t = 0, then walk the calendar. One bucket
// entry, occupancy bit, and delay lookup per gate covers the whole
// stripe.
func (st *Striped) runTimed(pp *PackedPairs, b0 int) {
	p := st.p
	aw := st.aw
	for i := range st.cal {
		st.cal[i] = st.cal[i][:0]
	}
	st.resetResult()

	st.loadInputs(st.values, pp.In1, b0)
	st.settle(st.values)

	// Apply the second vectors at t = 0: flip all inputs first, then
	// evaluate fan-outs once each on the union word mask (same delta-cycle
	// rule as the scalar path).
	inp := p.c.NumInputs()
	changed := st.changed[:0]
	cwm := st.changedWM[:0]
	for i, slot := range p.inputSlot {
		base := int(slot) * aw
		off := b0*inp + i
		var wm uint8
		for k := 0; k < aw; k++ {
			nv := pp.In2[off+k*inp]
			diff := st.values[base+k] ^ nv
			if diff == 0 {
				continue
			}
			st.values[base+k] = nv
			v0 := st.res.planes[base+k]
			st.res.planes[base+k] = v0 ^ diff
			if c := v0 & diff; c != 0 {
				st.addCarry(base+k, c)
			}
			wm |= 1 << uint(k)
		}
		if wm != 0 {
			changed = append(changed, slot)
			cwm = append(cwm, wm)
		}
	}
	st.changed, st.changedWM = changed, cwm
	st.evaluateFanouts(changed, cwm, 0)

	// Event loop. Ring position s tracks time t modulo the exact horizon
	// (a compare-and-reset, no power-of-two rounding). Each fired
	// (gate, time) entry covers all active words; entries fire in schedule
	// order by a sequential walk of the arena, and an entry whose words all
	// drained to zero (cancelled or replaced) is skipped without having
	// held any lane state.
	lane := st.LaneStats
	ew := 1 + aw
	t := int64(0)
	s := 0
	pend := st.pend
	vals := st.values
	occ := st.occ
	planes := st.res.planes
	for st.live > 0 {
		t++
		if s++; s == p.ringW {
			s = 0
		}
		for scanned := 0; len(st.cal[s]) == 0; scanned++ {
			if scanned > p.ringW {
				panic("sim: striped calendar lost an event")
			}
			t++
			if s++; s == p.ringW {
				s = 0
			}
		}
		ar := st.cal[s]
		changed = st.changed[:0]
		cwm = st.changedWM[:0]
		var togAtT [maxStripeWords]uint64
		for off := 0; off < len(ar); off += ew {
			f := int(ar[off])
			row := ar[off+1 : off+ew]
			base := f * aw
			pd := f * 2 * aw
			var wm uint8
			// Every still-scheduled lane toggles: a lane's value cannot
			// change while its event is outstanding (one pending event per
			// lane, applied only here), and a scheduled transition targets
			// the opposite value by construction — cancellation already
			// drained the lanes whose target became moot. The word loop is
			// branch-free on the lane masks: a drained word's all-zero mask
			// makes every update a no-op on lines the entry touches anyway,
			// which beats a data-dependent skip branch per word.
			for k := 0; k < aw; k++ {
				m := row[k]
				pend[pd+k] &^= m
				vals[base+k] ^= m
				v0 := planes[base+k]
				planes[base+k] = v0 ^ m
				if c := v0 & m; c != 0 {
					st.addCarry(base+k, c)
					planes = st.res.planes
				}
				togAtT[k] |= m
				wm |= uint8((m|-m)>>63) << uint(k)
			}
			if wm == 0 {
				continue // drained entry: every lane was cancelled or replaced
			}
			occ[f*p.occW+s>>6] &^= 1 << uint(s&63)
			st.live--
			changed = append(changed, int32(f))
			cwm = append(cwm, wm)
		}
		st.cal[s] = ar[:0]
		if lane {
			for k := 0; k < aw; k++ {
				for m := togAtT[k]; m != 0; m &= m - 1 {
					st.settleNorm[k*64+bits.TrailingZeros64(m)] = t
				}
			}
		}
		st.changed, st.changedWM = changed, cwm
		st.evaluateFanouts(changed, cwm, s)
	}

	st.finalizeTimed()
}

// finalizeTimed derives the aggregate result views from the toggle
// planes after a timed run — shared by the event wheel and the
// speculative waveform engine, which fill the same planes.
func (st *Striped) finalizeTimed() {
	p := st.p
	aw := st.aw
	stride := st.stride
	lane := st.LaneStats
	res := &st.res
	if lane {
		for l, sn := range st.settleNorm {
			res.SettleTime[l] = sn * p.gcdPS
		}
	}
	// One sequential pass over the first two counter planes recovers Any
	// (count ≥ 1: bit 0, bit 1, or the overflow union) and Multi
	// (count ≥ 2: bit 1 or overflow — lanes that reached 4 may have both
	// low bits clear). Both are assigned outright, which is why
	// resetResult never pre-zeroes them.
	p0 := res.planes[:stride]
	p1 := res.planes[stride : 2*stride]
	ovp := res.ovAny[:stride]
	for i, v0 := range p0 {
		o := p1[i] | ovp[i]
		res.Any[i] = v0 | o
		res.Multi[i] = o
	}
	if !lane {
		return
	}
	// Events: a vertical ripple-carry popcount per word column, each
	// counter plane entering at its weight.
	var cnt [maxStripeWords][24]uint64
	for lvl := 0; lvl < res.levels; lvl++ {
		rowp := res.planes[lvl*stride : (lvl+1)*stride]
		for f := 0; f < p.nLive; f++ {
			base := f * aw
			for k := 0; k < aw; k++ {
				v := rowp[base+k]
				if v == 0 {
					continue
				}
				cw := &cnt[k]
				for l := lvl; v != 0; l++ {
					c := cw[l]
					cw[l] = c ^ v
					v = c & v
				}
			}
		}
	}
	for k := 0; k < aw; k++ {
		for l, cwv := range cnt[k] {
			for ; cwv != 0; cwv &= cwv - 1 {
				res.Events[k*64+bits.TrailingZeros64(cwv)] += 1 << uint(l)
			}
		}
	}
}

// evaluateFanouts re-evaluates each fan-out of the changed slots exactly
// once, on the union of its changed fan-ins' word masks, scheduling into
// ring position snow's successors. Masks must be accumulated before any
// evaluation (a gate fed by two changed fan-ins needs both words), hence
// the two-phase dedup.
func (st *Striped) evaluateFanouts(changed []int32, masks []uint8, snow int) {
	if len(changed) == 0 {
		return
	}
	p := st.p
	off := p.fanoutOff
	idx := p.fanoutIdx
	if len(changed) == 1 {
		// One changed slot ⇒ one mask; no unions to accumulate.
		g := changed[0]
		wm := masks[0]
		for _, f := range idx[off[g]:off[g+1]] {
			st.evaluate(int(f), wm, snow)
		}
		return
	}
	st.stamp++
	stamp := st.stamp
	stamps := st.evalStamp
	fm := st.fanoutWM
	list := st.evalList[:0]
	for i, g := range changed {
		wm := masks[i]
		for _, f := range idx[off[g]:off[g+1]] {
			if stamps[f] != stamp {
				stamps[f] = stamp
				fm[f] = wm
				list = append(list, f)
			} else {
				fm[f] |= wm
			}
		}
	}
	st.evalList = list
	for _, f := range list {
		st.evaluate(int(f), fm[f], snow)
	}
}

// evaluate recomputes slot f's words in wm at ring position snow and
// applies the scalar runTimed's single-pending-event inertial rules per
// lane, as mask algebra. Words outside wm had no fan-in change this delta
// cycle: they would recompute their previous next-value and no-op, so
// skipping them is bit-exact. All words share
// one calendar row (delays are lane-invariant), so scheduling costs one
// bucket append and one occupancy update for the whole stripe.
func (st *Striped) evaluate(f int, wm uint8, snow int) {
	p := st.p
	aw := st.aw
	vals := st.values
	fab := st.fabRun[f]
	oa := int(uint32(fab))
	ob := int(fab >> 32)
	op := p.fop[f]
	base := f * aw
	pd := f * 2 * aw
	pend := st.pend
	// One pass per masked word, nothing materialized across words: at
	// most one fan-in changes per delta in steady state, so wm is usually
	// a single bit and the call must cost like a single-word evaluate.
	// The calendar row resolves lazily on the first scheduled
	// word — the delay (and therefore the row) is word-invariant.
	var row []uint64
	for m := wm; m != 0; m &= m - 1 {
		k := bits.TrailingZeros8(m)
		var nv uint64
		switch op {
		case fopAnd2:
			nv = vals[oa+k] & vals[ob+k]
		case fopNand2:
			nv = ^(vals[oa+k] & vals[ob+k])
		case fopOr2:
			nv = vals[oa+k] | vals[ob+k]
		case fopNor2:
			nv = ^(vals[oa+k] | vals[ob+k])
		case fopXor2:
			nv = vals[oa+k] ^ vals[ob+k]
		case fopXnor2:
			nv = ^(vals[oa+k] ^ vals[ob+k])
		default:
			nv = st.evalWideWord(f, k)
		}
		cur := vals[base+k]
		hp := pend[pd+k]
		diffCN := cur ^ nv // lanes whose settled target ≠ current value
		if hp == 0 {
			// No pending lanes: every differing lane schedules fresh, and
			// the pending-value word is dead outside the has mask, so it
			// takes nv wholesale without being read first.
			if diffCN == 0 {
				continue
			}
			if row == nil {
				row = st.schedule(f, snow)
			}
			row[k] |= diffCN
			pend[pd+aw+k] = nv
			pend[pd+k] = diffCN
			continue
		}
		pv := pend[pd+aw+k]
		diffPN := (pv ^ nv) & hp   // pending lanes heading somewhere else
		cancel := diffPN &^ diffCN // …back to the current value: inertial swallow
		repl := diffPN & diffCN    // …to a third state: replace the pending edge
		fresh := diffCN &^ hp      // no pending event and a new target: schedule
		if rm := cancel | repl; rm != 0 {
			st.removePendingWord(f, k, rm)
		}
		if add := repl | fresh; add != 0 {
			if row == nil {
				row = st.schedule(f, snow)
			}
			row[k] |= add
			pend[pd+aw+k] = (pv &^ add) | (nv & add)
		}
		pend[pd+k] = (hp &^ cancel) | fresh
	}
}

// schedule appends a fresh calendar entry for slot f's event at delay
// ticks past ring position snow and returns its mask words. The occupancy
// bit for the target position is necessarily clear on entry — each
// (gate, target-time) pair is scheduled by exactly one evaluate call
// while outstanding (see the cal field doc) — so an unconditional append
// cannot double an entry.
func (st *Striped) schedule(f, snow int) []uint64 {
	p := st.p
	s := snow + int(p.delays[f])
	if s >= p.ringW {
		s -= p.ringW
	}
	st.occ[f*p.occW+s>>6] |= 1 << uint(s&63)
	st.live++
	ar := st.cal[s]
	off := len(ar)
	ar = append(ar, zeroEntry[:1+st.aw]...)
	ar[off] = uint64(f)
	st.cal[s] = ar
	st.hint[f] = uint32(s)<<20 | uint32(off&0xFFFFF)
	return ar[off+1:]
}

// evalWideWord computes one word of a ≥3-fan-in slot's next value.
func (st *Striped) evalWideWord(f, k int) uint64 {
	p := st.p
	aw := st.aw
	vals := st.values
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

// removePendingWord clears the lane mask rm of slot f's word k from every
// calendar entry the slot occupies (eager cancellation). The occupancy
// bitmap names the target arenas; the schedule hint usually points
// straight at the gate's entry, and a sequential scan is the fallback.
// Any hint that passes validation is safe to follow even when stale: an
// entry-aligned offset whose gate id reads f necessarily names f's entry,
// because a gate occupies at most one entry per arena while its occupancy
// bit is set. An entry whose words all drain releases its occupancy bit and live
// count; its arena bytes stay behind as an all-zero entry the fire loop
// skips.
func (st *Striped) removePendingWord(f, k int, rm uint64) {
	p := st.p
	aw := st.aw
	ew := 1 + aw
	base := f * p.occW
	h := st.hint[f]
	hs := int(h >> 20)
	for ow := 0; ow < p.occW; ow++ {
		slots := st.occ[base+ow]
		for slots != 0 {
			b := bits.TrailingZeros64(slots)
			slots &= slots - 1
			sl := ow<<6 + b
			ar := st.cal[sl]
			off := 0
			if sl == hs {
				if ho := int(h & 0xFFFFF); ho+ew <= len(ar) && ho%ew == 0 && int(ar[ho]) == f {
					off = ho
				} else {
					for int(ar[off]) != f {
						off += ew
					}
				}
			} else {
				for int(ar[off]) != f {
					off += ew
				}
			}
			row := ar[off+1 : off+ew]
			old := row[k]
			nr := old &^ rm
			if nr == old {
				continue
			}
			row[k] = nr
			if nr != 0 {
				continue
			}
			var remain uint64
			for j := 0; j < aw; j++ {
				remain |= row[j]
			}
			if remain == 0 {
				st.occ[base+ow] &^= 1 << uint(b)
				st.live--
			}
		}
	}
}

// addCarry propagates a carry out of count bit 0 into the second counter
// plane; a carry out of bit 1 (the lane's count reaching 4) spills to the
// lazily grown deep planes. idx is the value-word index slot·aw + word,
// which doubles as the level-0 plane index.
func (st *Striped) addCarry(idx int, carry uint64) {
	res := &st.res
	j := idx + st.stride
	v := res.planes[j]
	res.planes[j] = v ^ carry
	if carry &= v; carry != 0 {
		st.spillToggles(idx, carry)
	}
}

// spillToggles ripples a carry into the deep counter planes (level l
// holds count bit l, grown lazily past the two resident levels) and
// records the spilling lanes in the per-word overflow union, which is
// what lets Count and the power accumulation skip the deep planes for the
// overwhelming majority of words that never reach a count of 4.
func (st *Striped) spillToggles(idx int, carry uint64) {
	res := &st.res
	res.ovAny[idx] |= carry
	stride := st.stride
	for j := idx + 2*stride; carry != 0; j += stride {
		if j >= len(res.planes) {
			res.planes = append(res.planes, make([]uint64, stride)...)
			res.levels++
		}
		v := res.planes[j]
		res.planes[j] = v ^ carry
		carry &= v
	}
}
