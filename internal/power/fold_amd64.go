package power

import (
	"repro/internal/cpufeat"
	"repro/internal/sim"
)

// haveAVX512 reports whether this CPU and OS run the AVX-512 fold. It is
// decided once, at init.
var haveAVX512 = cpufeat.AVX512()

// foldZeroAVX512 folds a zero-delay stripe: for each slot in ascending
// order and each of its aw words, one masked add of the slot's energy
// per 8-lane chunk, under the word's toggle mask.
//
//go:noescape
func foldZeroAVX512(acc, energy *float64, anyBits *uint64, nslots, aw int)

// foldTimedAVX512 folds a timed stripe from (slot, word) on, adding eg,
// e2 = eff2·eg and e3 = eff3·eg under the disjoint masks of lanes that
// toggled once, twice and three times. At a word with overflow lanes
// (count ≥ 4) it returns that word once its other lanes are added;
// otherwise it returns (nslots, 0).
//
//go:noescape
func foldTimedAVX512(acc, energy *float64, anyBits, multiBits, b0Bits, ovBits *uint64,
	nslots, aw, slot, word int, eff2, eff3 float64) (s, k int)

// foldAVX512 is foldGo on the assembly kernels, bit-identical to it:
// slots run in ascending order and each lane gets one add per toggled
// slot, of the same float64 the Go fold adds, so every lane's sum sees
// the same adds in the same order. The kernels return at words with
// overflow lanes; Go adds those lanes and resumes at the next word.
func (e *Evaluator) foldAVX512(r *sim.StripedResult, acc []float64) {
	aw, nslots := r.AW, r.NSlots
	n := nslots * aw
	if n == 0 {
		return
	}
	// Exact-length views: a shape mismatch panics here, in Go, instead
	// of letting the kernel read past a slice.
	acc = acc[:aw*64]
	energy := e.energyW[:nslots]
	anyBits := r.Any[:n]
	b0, ov := r.CountPlanes()
	if b0 == nil {
		foldZeroAVX512(&acc[0], &energy[0], &anyBits[0], nslots, aw)
		return
	}
	multi, b0, ov := r.Multi[:n], b0[:n], ov[:n]
	eff2, eff3 := 1+e.glitch, 1+e.glitch*2
	for s, k := 0, 0; ; k++ {
		s, k = foldTimedAVX512(&acc[0], &energy[0], &anyBits[0], &multi[0], &b0[0], &ov[0],
			nslots, aw, s, k, eff2, eff3)
		if s == nslots {
			return
		}
		e.foldOverflow(r, s, k, ov[s*aw+k], energy[s], (*[64]float64)(acc[k*64:]))
	}
}
