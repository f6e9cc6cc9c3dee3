package power

import (
	"math/bits"

	"repro/internal/sim"
)

// foldGo adds a striped result's cycle energies (joules) into acc, one
// 64-lane view per word, so no toggle needs a bounds check. Per lane the
// sum visits gates in ascending order (slot s is gate s) with one add
// per toggled gate and the same eff expression as energyOf, so every
// lane's float64 accumulation is bit-identical to the scalar path. It is
// stripeMW's fold on hosts without AVX-512 and the reference foldAVX512
// is tested against.
func (e *Evaluator) foldGo(r *sim.StripedResult, acc []float64) {
	aw := r.AW
	b0s, ovs := r.CountPlanes()
	// Glitch factors for the two in-block count values: lanes counting 2
	// or 3 cover nearly every glitching lane, and their factors are the
	// exact floats the per-lane formula produces (glitch·1 and glitch·2
	// are exact scalings), so grouping a word's lanes by count keeps the
	// sum bit-identical to the scalar walk while skipping per-lane Count
	// reconstruction for everything below the overflow threshold.
	eff2 := 1 + e.glitch
	eff3 := 1 + e.glitch*2
	for s, eg := range e.energyW[:r.NSlots] {
		for k, any := range r.Any[s*aw : s*aw+aw] {
			if any == 0 {
				continue
			}
			lanes := (*[64]float64)(acc[k*64:])
			// Single-toggle lanes have eff = 1 exactly (MultiMask is
			// empty under zero delay, where counts live in Any alone).
			multi := r.MultiMask(s, k)
			for m := any &^ multi; m != 0; m &= m - 1 {
				lanes[bits.TrailingZeros64(m)&63] += eg
			}
			if multi == 0 {
				continue
			}
			b0, ov := b0s[s*aw+k], ovs[s*aw+k]
			e2 := eff2 * eg
			for m := multi &^ b0 &^ ov; m != 0; m &= m - 1 {
				lanes[bits.TrailingZeros64(m)&63] += e2
			}
			e3 := eff3 * eg
			for m := multi & b0 &^ ov; m != 0; m &= m - 1 {
				lanes[bits.TrailingZeros64(m)&63] += e3
			}
			e.foldOverflow(r, s, k, ov, eg, lanes)
		}
	}
}

// foldOverflow adds the overflow lanes ov (count ≥ 4) of slot s, word k
// to lanes, reconstructing each count from the planes. Both folds leave
// these lanes to it.
func (e *Evaluator) foldOverflow(r *sim.StripedResult, s, k int, ov uint64, eg float64, lanes *[64]float64) {
	for m := ov; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m) & 63
		n := r.Count(s, k, lane)
		eff := 1 + e.glitch*float64(n-1)
		lanes[lane] += eff * eg
	}
}
