package sim

// transposeAVX512 is transpose64 on AVX-512F registers: the same six
// rounds of block swaps, on the whole matrix at once.
//
//go:noescape
func transposeAVX512(a *[64]uint64)
