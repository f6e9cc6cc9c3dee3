package sim

import "fmt"

// StripedResult holds the per-lane toggle counts of one Speculative.Run,
// the Toggles of 512 scalar Results. Lane addressing is (word k, lane l)
// = pair k·64+l of the stripe; lanes beyond the packed batch stay inert.
//
// Aliasing contract: the result and every slice in it are owned by the
// executor and overwritten by the next Run on it — hold no reference
// across runs. Toggles copies counts out into a caller-owned slice and
// is the safe way to keep them, exactly like Result.CopyToggles on the
// scalar path.
type StripedResult struct {
	// AW is the number of words active this run; per-slot arrays are
	// packed at AW words per slot.
	AW int
	// NSlots is the number of compiled slots, one per gate of the
	// circuit: slot s is gate s.
	NSlots int
	// Any[slot·AW+k] is the mask of word-k lanes where the slot's gate
	// toggled at least once during the cycle; Multi the lanes where it
	// toggled more than once (nil on the glitch-free zero-delay kernel).
	Any   []uint64
	Multi []uint64

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
// Count walks. Both alias executor state under the aliasing contract
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
// needed), indexed by gate id like the scalar Result.Toggles. The
// returned slice is caller-owned: unlike Any and Multi it does
// not alias executor state and survives subsequent Run calls.
func (r *StripedResult) Toggles(word, lane int, dst []int32) []int32 {
	if cap(dst) < r.NSlots {
		dst = make([]int32, r.NSlots)
	}
	dst = dst[:r.NSlots]
	for g := range dst {
		dst[g] = r.Count(g, word, lane)
	}
	return dst
}

// NewStripedResult builds the result a run of aw words would leave for
// the per-lane toggle counts counts[slot·aw+k][lane]: a timed run's, or
// with zeroDelay a zero-delay run's, whose counts must be 0 or 1. Tests
// of result consumers use it to reach count patterns no circuit produces on demand.
func NewStripedResult(aw int, counts [][64]uint8, zeroDelay bool) *StripedResult {
	n := len(counts)
	if aw < 1 || n%aw != 0 {
		panic(fmt.Sprintf("sim: %d count words do not split into %d-word slots", n, aw))
	}
	r := &StripedResult{AW: aw, NSlots: n / aw, Any: make([]uint64, n), stride: n, zero: zeroDelay}
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
