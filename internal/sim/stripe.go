package sim

import (
	"fmt"
	"math/bits"
)

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
	// toggled at least once during the cycle.
	Any []uint64

	// planes holds the per-lane toggle counters as bit planes, level-major
	// at [lvl·stride + slot·AW + k] (level l = count bit l); ovAny is the
	// per-word union of every level ≥ 2 — the lanes whose counts reached
	// 4, which is what lets Count settle everything below that from the
	// first two planes alone. levels is 0 on a zero-delay result, whose
	// counts are 0/1 and encoded in Any alone, and at least 2 otherwise.
	planes []uint64
	ovAny  []uint64
	levels int
	stride int
}

// Count returns the toggle count of the gate at slot in lane (word, lane)
// — the per-lane equivalent of Result.Toggles[g].
func (r *StripedResult) Count(slot, word, lane int) int32 {
	idx := slot*r.AW + word
	if r.levels == 0 {
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
	return int32(r.planes[idx]>>uint(lane)&1) | int32(r.planes[r.stride+idx]>>uint(lane)&1)<<1
}

// Levels returns the number of count planes: 0 on a zero-delay result,
// whose counts are 0 or 1 and live in Any alone.
func (r *StripedResult) Levels() int { return r.levels }

// CountPlane returns count bit l, for l below Levels, of every (slot,
// word), laid out like Any: a lane's toggle count is the sum of 2^l over
// the planes whose word has its bit set. It aliases executor state under
// the aliasing contract above.
func (r *StripedResult) CountPlane(l int) []uint64 {
	return r.planes[l*r.stride : (l+1)*r.stride]
}

// Toggles expands one lane's per-gate toggle counts into dst (grown as
// needed), indexed by gate id like the scalar Result.Toggles. The
// returned slice is caller-owned: unlike Any and the count planes it
// does not alias executor state and survives subsequent Run calls.
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
// the per-lane toggle counts counts[slot·aw+k][lane]: a timed run's, with
// the two count planes every run has and as many deeper ones as the
// largest count needs, or with zeroDelay a zero-delay run's, whose counts
// must be 0 or 1. Tests of result consumers use it to reach count
// patterns no circuit produces on demand.
func NewStripedResult(aw int, counts [][64]uint8, zeroDelay bool) *StripedResult {
	n := len(counts)
	if aw < 1 || n%aw != 0 {
		panic(fmt.Sprintf("sim: %d count words do not split into %d-word slots", n, aw))
	}
	r := &StripedResult{AW: aw, NSlots: n / aw, Any: make([]uint64, n), stride: n}
	if !zeroDelay {
		var deepest uint8
		for _, word := range counts {
			for _, c := range word {
				deepest = max(deepest, c)
			}
		}
		r.levels = max(2, bits.Len8(deepest))
		r.planes = make([]uint64, r.levels*n)
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
			if c >= 4 {
				r.ovAny[i] |= bit
			}
		}
	}
	return r
}
