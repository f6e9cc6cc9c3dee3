//go:build !amd64

package sim

// transposeAVX512 is never called off amd64, where haveTransposeKernel
// is false; it lets transposeRows compile.
func transposeAVX512(a *[64]uint64) {
	panic("sim: transpose kernel off amd64")
}
