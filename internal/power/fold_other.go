//go:build !amd64

package power

// haveAVX512 is false off amd64: foldGo is the only fold.
const haveAVX512 = false

// foldSIMD is never called off amd64; it lets the shared dispatch and
// tests compile.
func foldSIMD(acc, weights []int32, masks []uint64, aw int) {
	panic("power: AVX-512 fold on a non-amd64 build")
}
