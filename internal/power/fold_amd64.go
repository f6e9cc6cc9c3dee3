package power

import "repro/internal/cpufeat"

// haveAVX512 reports whether this CPU and OS run the AVX-512 fold. It is
// decided once, at init.
var haveAVX512 = cpufeat.AVX512()

//go:noescape
func foldAVX512(acc, weights *int32, masks *uint64, nslots, aw int)

// foldSIMD is foldGo on the assembly kernel, with equal sums.
func foldSIMD(acc, weights []int32, masks []uint64, aw int) {
	// Exact-length views: a shape mismatch panics here, in Go, instead
	// of letting the kernel read past a slice.
	acc = acc[:aw*64]
	masks = masks[:len(weights)*aw]
	if len(weights) == 0 {
		clear(acc)
		return
	}
	foldAVX512(&acc[0], &weights[0], &masks[0], len(weights), aw)
}
