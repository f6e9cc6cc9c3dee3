package cpufeat

var avx512 = detect()

func detect() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	// CPUID.1:ECX: FMA, XGETBV enabled by the OS, AVX.
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	// XCR0: SSE, AVX, opmask, ZMM0–15 upper halves, ZMM16–31.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	// CPUID.(7,0):EBX.
	const avx2, avx512f, avx512bw = 1 << 5, 1 << 16, 1 << 30
	_, b, _, _ := cpuid(7, 0)
	return b&(avx2|avx512f|avx512bw) == avx2|avx512f|avx512bw
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (lo, hi uint32)
