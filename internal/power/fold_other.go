//go:build !amd64

package power

import "repro/internal/sim"

// haveAVX512 is false off amd64: foldGo is the only fold.
const haveAVX512 = false

// foldAVX512 is never called off amd64; it lets the shared dispatch and
// tests compile.
func (e *Evaluator) foldAVX512(r *sim.StripedResult, acc []float64) {
	panic("power: AVX-512 fold on a non-amd64 build")
}
