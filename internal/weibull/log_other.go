//go:build !amd64

package weibull

// haveLogKernel is false off amd64: math.Log makes every log pass.
const haveLogKernel = false

// logAVX512 is never called off amd64; it lets the shared log pass
// compile.
func logAVX512(dst, x *float64, n int) bool {
	panic("weibull: AVX-512 Log kernel on a non-amd64 build")
}
