//go:build !amd64

package sim

// settleAVX512 is never called off amd64, where haveSettleKernel is
// false; it lets settle compile.
func settleAVX512(v1, v2, d, fab *uint64, fop *uint8, ops *[fopXnor2 + 1][3]uint64, s, n, aw int) int {
	panic("sim: settle kernel off amd64")
}
