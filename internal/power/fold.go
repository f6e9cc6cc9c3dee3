package power

import "math/bits"

// fold sets acc's aw·64 lanes to one mask plane's integer energy: lane
// (word k, bit l) gets the sum of weights[s] over the slots s whose word
// masks[s·aw+k] has bit l set. A lane sums at most Σ weights, which
// quantize keeps within int32, so no lane wraps. stripeMW folds Any and
// each count plane through it, on the AVX-512 kernel where the host has
// it and foldGo elsewhere; integer sums are equal in any order.
func fold(acc, weights []int32, masks []uint64, aw int) {
	if haveAVX512 {
		foldSIMD(acc, weights, masks, aw)
	} else {
		foldGo(acc, weights, masks, aw)
	}
}

// foldGo is fold in Go, one add per set mask bit through a 64-lane view
// per word, so no add needs a bounds check. It is the reference the
// kernel is tested against.
func foldGo(acc, weights []int32, masks []uint64, aw int) {
	clear(acc[:aw*64])
	for s, w := range weights {
		for k, m := range masks[s*aw : s*aw+aw] {
			lanes := (*[64]int32)(acc[k*64:])
			for ; m != 0; m &= m - 1 {
				lanes[bits.TrailingZeros64(m)&63] += w
			}
		}
	}
}
