//go:build !amd64

package weibull

// haveExpKernel is false off amd64: math.Exp makes every sweep.
const haveExpKernel = false

// expAVX512 is never called off amd64; it lets the shared sweep compile.
func expAVX512(dst, x *float64, n int, a float64) bool {
	panic("weibull: AVX-512 Exp kernel on a non-amd64 build")
}
