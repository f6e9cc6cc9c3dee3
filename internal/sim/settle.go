package sim

import "repro/internal/cpufeat"

// haveSettleKernel reports whether settle runs its AVX-512 kernel here.
// It is decided once, at init; tests switch it off to time and check
// the Go walk on the same host.
var haveSettleKernel = cpufeat.AVX512()

// settleOps holds each two-input opcode's row (P, X, Q) of all-zero or
// all-one words, indexed by opcode: a gate with fan-in words a and b
// settles to
//
//	(X ? a^b : (a^P)&(b^P)) ^ Q
//
// which is a&b, ¬(a&b), ¬(¬a&¬b) = a|b, ¬a&¬b = ¬(a|b), a^b and ¬(a^b)
// for AND, NAND, OR, NOR, XOR and XNOR. The AVX-512 kernel broadcasts
// the row of every slot, so it evaluates any two-input gate with the
// same instructions and no branch on the opcode. Row 0 (inputs) is never
// read.
var settleOps = [fopXnor2 + 1][3]uint64{
	fopAnd2:  {0, 0, 0},
	fopNand2: {0, 0, ^uint64(0)},
	fopOr2:   {^uint64(0), 0, ^uint64(0)},
	fopNor2:  {^uint64(0), 0, 0},
	fopXor2:  {0, ^uint64(0), 0},
	fopXnor2: {0, ^uint64(0), ^uint64(0)},
}

// settle runs the straight-line settle program over the active words of
// two value planes in one walk: every gate slot, in levelized order, gets
// its words in v1 and in v2 from the same fan-in offsets. When d is
// non-nil it also gets d = v1 ^ v2 for every slot, inputs included — the
// zero-delay toggle plane. The planes' input slots must be loaded;
// input slots carry no instruction.
//
// On AVX-512 hosts the kernel evaluates the two-input slots and returns
// at each slot with three or more inputs, which Go evaluates before the
// kernel resumes at the next slot. Elsewhere settleGo, the reference the
// tests compare the kernel with, does the whole walk.
func (sp *Speculative) settle(v1, v2, d []uint64) {
	if !haveSettleKernel {
		sp.settleGo(v1, v2, d)
		return
	}
	n := sp.p.n
	// Exact-length views: a shape mismatch panics here, in Go, instead of
	// letting the kernel touch words past the stride.
	stride := sp.stride
	v1, v2 = v1[:stride], v2[:stride]
	fab, fop := sp.fabRun[:n], sp.p.fop[:n]
	var dp *uint64
	if d != nil {
		d = d[:stride]
		dp = &d[0]
	}
	for s := 0; s < n; s++ {
		s = settleAVX512(&v1[0], &v2[0], dp, &fab[0], &fop[0], &settleOps, s, n, sp.aw)
		if s == n {
			return
		}
		sp.settleWide(v1, v2, d, s)
	}
}

// settleGo is settle's Go walk: one opcode switch per slot, then both
// planes' words. The views of each slot's words are cut once per slot,
// which leaves the word loops without bounds checks.
func (sp *Speculative) settleGo(v1, v2, d []uint64) {
	p := sp.p
	aw := sp.aw
	for s, op := range p.fop[:p.n] {
		if op > fopXnor2 {
			sp.settleWide(v1, v2, d, s)
			continue
		}
		base := s * aw
		o1 := v1[base : base+aw]
		o2 := v2[base : base+len(o1)]
		if op != fopInput {
			fab := sp.fabRun[s]
			oa, ob := int(uint32(fab)), int(fab>>32)
			a1, b1 := v1[oa:oa+len(o1)], v1[ob:ob+len(o1)]
			a2, b2 := v2[oa:oa+len(o1)], v2[ob:ob+len(o1)]
			switch op {
			case fopAnd2:
				for k := range o1 {
					o1[k] = a1[k] & b1[k]
					o2[k] = a2[k] & b2[k]
				}
			case fopNand2:
				for k := range o1 {
					o1[k] = ^(a1[k] & b1[k])
					o2[k] = ^(a2[k] & b2[k])
				}
			case fopOr2:
				for k := range o1 {
					o1[k] = a1[k] | b1[k]
					o2[k] = a2[k] | b2[k]
				}
			case fopNor2:
				for k := range o1 {
					o1[k] = ^(a1[k] | b1[k])
					o2[k] = ^(a2[k] | b2[k])
				}
			case fopXor2:
				for k := range o1 {
					o1[k] = a1[k] ^ b1[k]
					o2[k] = a2[k] ^ b2[k]
				}
			case fopXnor2:
				for k := range o1 {
					o1[k] = ^(a1[k] ^ b1[k])
					o2[k] = ^(a2[k] ^ b2[k])
				}
			}
		}
		if d != nil {
			od := d[base : base+len(o1)]
			for k := range o1 {
				od[k] = o1[k] ^ o2[k]
			}
		}
	}
}

// settleWide settles slot s, a gate with three or more inputs, in both
// planes and writes its d words when d is non-nil: the slots the kernel
// returns at, kept out of settleGo so its fused cases stay compact.
func (sp *Speculative) settleWide(v1, v2, d []uint64, s int) {
	base := s * sp.aw
	for k := 0; k < sp.aw; k++ {
		w1 := sp.evalWideWord(v1, s, k)
		w2 := sp.evalWideWord(v2, s, k)
		v1[base+k] = w1
		v2[base+k] = w2
		if d != nil {
			d[base+k] = w1 ^ w2
		}
	}
}
