package sim

// settleAVX512 is settle's kernel. From slot s up to n it settles each
// two-input slot on the aw ≤ 8 active words of both planes, at the
// pre-multiplied fan-in offsets in fab and with the opcode's row of ops,
// and writes d = v1 ^ v2 for every slot when d is non-nil. It returns
// the first slot with three or more inputs, or n.
//
//go:noescape
func settleAVX512(v1, v2, d, fab *uint64, fop *uint8, ops *[fopXnor2 + 1][3]uint64, s, n, aw int) int
