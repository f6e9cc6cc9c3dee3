// Package bench provides the benchmark circuits used by the experiments: a
// library of structural building blocks (adders, an array multiplier,
// Hamming single-error-correction logic, ALU slices, parity and mux trees,
// priority encoders) plus named generators that stand in for the ISCAS-85
// circuits C432…C7552 evaluated in the paper.
//
// The real ISCAS-85 netlists are not redistributable inside this offline
// module, so each named generator builds a synthetic equivalent whose
// primary-input count, primary-output count, and gate count match the
// original, constructed around the same kind of datapath the original
// implements (C6288 is a true 16×16 array multiplier, C1355/C1908 are
// Hamming SEC circuits, C880/C2670/C3540/C5315 are ALU-centred, …). The
// maximum-power statistics depend only on the induced cycle-power
// distribution — bounded, continuous-looking, with a thin upper tail —
// which these circuits reproduce; DESIGN.md records the substitution.
package bench

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/stats"
)

// fullAdder adds s, cout gates for inputs a, b, cin (5 gates).
func fullAdder(b *netlist.Builder, a, bb, cin int) (sum, cout int) {
	x1 := b.Xor(a, bb)
	sum = b.Xor(x1, cin)
	a1 := b.And(a, bb)
	a2 := b.And(x1, cin)
	cout = b.Or(a1, a2)
	return sum, cout
}

// halfAdder adds s, cout gates for inputs a, b (2 gates).
func halfAdder(b *netlist.Builder, a, bb int) (sum, cout int) {
	return b.Xor(a, bb), b.And(a, bb)
}

// rippleAdderCin builds an n-bit ripple-carry adder over equal-width
// operand slices xs and ys with carry input cin, returning the sum bits
// and the carry out.
func rippleAdderCin(b *netlist.Builder, xs, ys []int, cin int) (sums []int, cout int) {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("bench: rippleAdderCin operand mismatch")
	}
	sums = make([]int, len(xs))
	c := cin
	for i := range xs {
		sums[i], c = fullAdder(b, xs[i], ys[i], c)
	}
	return sums, c
}

// xorNand builds x⊕y from four NAND gates — the standard NAND expansion
// used by the real ISCAS-85 C1355 (the NAND-mapped version of C499). The
// internal nodes give the cell the toggle-saturation behaviour of NAND
// logic rather than an ideal XOR primitive.
func xorNand(b *netlist.Builder, x, y int) int {
	t := b.Nand(x, y)
	u := b.Nand(x, t)
	v := b.Nand(y, t)
	return b.Nand(u, v)
}

// xorTreeNand reduces signals to a single parity bit using NAND-expanded
// XOR cells.
func xorTreeNand(b *netlist.Builder, sig []int) int {
	if len(sig) == 0 {
		panic("bench: xorTreeNand of nothing")
	}
	for len(sig) > 1 {
		next := make([]int, 0, (len(sig)+1)/2)
		for i := 0; i+1 < len(sig); i += 2 {
			next = append(next, xorNand(b, sig[i], sig[i+1]))
		}
		if len(sig)%2 == 1 {
			next = append(next, sig[len(sig)-1])
		}
		sig = next
	}
	return sig[0]
}

// xorTree reduces signals to a single parity bit with a balanced XOR tree.
func xorTree(b *netlist.Builder, sig []int) int {
	if len(sig) == 0 {
		panic("bench: xorTree of nothing")
	}
	for len(sig) > 1 {
		next := make([]int, 0, (len(sig)+1)/2)
		for i := 0; i+1 < len(sig); i += 2 {
			next = append(next, b.Xor(sig[i], sig[i+1]))
		}
		if len(sig)%2 == 1 {
			next = append(next, sig[len(sig)-1])
		}
		sig = next
	}
	return sig[0]
}

// orTree reduces signals to a single OR with a balanced tree.
func orTree(b *netlist.Builder, sig []int) int {
	if len(sig) == 0 {
		panic("bench: orTree of nothing")
	}
	for len(sig) > 1 {
		next := make([]int, 0, (len(sig)+1)/2)
		for i := 0; i+1 < len(sig); i += 2 {
			next = append(next, b.Or(sig[i], sig[i+1]))
		}
		if len(sig)%2 == 1 {
			next = append(next, sig[len(sig)-1])
		}
		sig = next
	}
	return sig[0]
}

// mux2 builds a 2:1 multiplexer: out = sel ? b1 : a (4 gates).
func mux2(b *netlist.Builder, a, b1, sel int) int {
	ns := b.Not(sel)
	t1 := b.And(a, ns)
	t2 := b.And(b1, sel)
	return b.Or(t1, t2)
}

// arrayMultiplier builds an n×n unsigned array multiplier (AND partial-
// product matrix plus carry-save adder rows with a ripple final stage),
// returning the 2n product bits. This is the same architecture as ISCAS-85
// C6288.
func arrayMultiplier(b *netlist.Builder, xs, ys []int) []int {
	n := len(xs)
	if n == 0 || len(ys) != n {
		panic("bench: arrayMultiplier operand mismatch")
	}
	// Partial products pp[i][j] = x_j AND y_i.
	pp := make([][]int, n)
	for i := range pp {
		pp[i] = make([]int, n)
		for j := range pp[i] {
			pp[i][j] = b.And(xs[j], ys[i])
		}
	}
	product := make([]int, 0, 2*n)
	product = append(product, pp[0][0])

	// Row-by-row carry-save accumulation: running holds the upper bits of
	// the partial sum aligned with the next row.
	running := pp[0][1:]
	for i := 1; i < n; i++ {
		row := pp[i]
		sums := make([]int, 0, n)
		var carries []int
		// First column of this row adds row[0] to running[0] (plus carry
		// chain within the row via full adders).
		carry := -1
		for j := 0; j < n; j++ {
			var a int
			if j < len(running) {
				a = running[j]
			} else {
				a = -1
			}
			switch {
			case a >= 0 && carry >= 0:
				s, c := fullAdder(b, a, row[j], carry)
				sums = append(sums, s)
				carry = c
			case a >= 0:
				s, c := halfAdder(b, a, row[j])
				sums = append(sums, s)
				carry = c
			case carry >= 0:
				s, c := halfAdder(b, row[j], carry)
				sums = append(sums, s)
				carry = c
			default:
				sums = append(sums, row[j])
				carry = -1
			}
		}
		if carry >= 0 {
			carries = append(carries, carry)
		}
		product = append(product, sums[0])
		running = append(sums[1:], carries...)
	}
	product = append(product, running...)
	if len(product) != 2*n {
		panic(fmt.Sprintf("bench: multiplier produced %d bits, want %d", len(product), 2*n))
	}
	return product
}

// hammingSyndrome computes ceil(log2)+1-style Hamming parity checks over
// data bits: check bit k is the XOR of all data positions whose (1-based)
// index has bit k set. Returns the syndrome signals.
func hammingSyndrome(b *netlist.Builder, data []int, checks int) []int {
	return hammingSyndromeWith(b, data, checks, xorTree)
}

// hammingSyndromeWith is hammingSyndrome with a pluggable XOR-tree
// implementation (primitive XOR gates or NAND-expanded cells).
func hammingSyndromeWith(b *netlist.Builder, data []int, checks int, tree func(*netlist.Builder, []int) int) []int {
	syn := make([]int, checks)
	for k := 0; k < checks; k++ {
		var members []int
		for i := range data {
			if (i+1)&(1<<k) != 0 {
				members = append(members, data[i])
			}
		}
		if len(members) == 0 {
			members = []int{data[k%len(data)]}
		}
		syn[k] = tree(b, members)
	}
	return syn
}

// hammingCorrector builds a single-error-correcting decoder: for each data
// bit, decode whether the syndrome addresses it and conditionally flip it.
// syndromeIn are check-bit signals (typically syndrome XOR received checks).
// Returns the corrected data signals. Gate cost ≈ len(data)·(checks+2).
func hammingCorrector(b *netlist.Builder, data, syndrome []int) []int {
	return hammingCorrectorWith(b, data, syndrome, func(b *netlist.Builder, x, y int) int {
		return b.Xor(x, y)
	})
}

// hammingCorrectorWith is hammingCorrector with a pluggable 2-input XOR
// implementation for the conditional bit flip.
func hammingCorrectorWith(b *netlist.Builder, data, syndrome []int, xf func(*netlist.Builder, int, int) int) []int {
	notSyn := make([]int, len(syndrome))
	for i, s := range syndrome {
		notSyn[i] = b.Not(s)
	}
	out := make([]int, len(data))
	for i := range data {
		// match_i = AND over syndrome bits equal to the binary position i+1.
		terms := make([]int, len(syndrome))
		for k := range syndrome {
			if (i+1)&(1<<k) != 0 {
				terms[k] = syndrome[k]
			} else {
				terms[k] = notSyn[k]
			}
		}
		match := terms[0]
		for _, t := range terms[1:] {
			match = b.And(match, t)
		}
		out[i] = xf(b, data[i], match)
	}
	return out
}

// aluSlice builds a 1-bit ALU cell computing one of AND/OR/XOR/ADD selected
// by two select lines, returning (result, carryOut). ~15 gates per bit.
func aluSlice(b *netlist.Builder, a, bb, cin, s0, s1 int) (res, cout int) {
	andv := b.And(a, bb)
	orv := b.Or(a, bb)
	xorv := b.Xor(a, bb)
	sum, c := fullAdder(b, a, bb, cin)
	lo := mux2(b, andv, orv, s0)
	hi := mux2(b, xorv, sum, s0)
	res = mux2(b, lo, hi, s1)
	return res, c
}

// alu builds an n-bit ALU over operand slices with shared select lines,
// returning result bits and the final carry.
func alu(b *netlist.Builder, xs, ys []int, cin, s0, s1 int) ([]int, int) {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("bench: alu operand mismatch")
	}
	res := make([]int, len(xs))
	c := cin
	for i := range xs {
		res[i], c = aluSlice(b, xs[i], ys[i], c, s0, s1)
	}
	return res, c
}

// priorityEncoder builds an n-way priority chain: grant[i] is high when
// req[i] is the highest-priority (lowest index) active request. Returns the
// grant signals and a "some request" flag.
func priorityEncoder(b *netlist.Builder, req []int) (grants []int, any int) {
	if len(req) == 0 {
		panic("bench: priorityEncoder of nothing")
	}
	grants = make([]int, len(req))
	grants[0] = b.Buf(req[0])
	blocked := req[0]
	for i := 1; i < len(req); i++ {
		nb := b.Not(blocked)
		grants[i] = b.And(req[i], nb)
		blocked = b.Or(blocked, req[i])
	}
	return grants, blocked
}

// comparator builds an n-bit equality/greater-than comparator, returning
// (eq, gt) signals. ~6n gates.
func comparator(b *netlist.Builder, xs, ys []int) (eq, gt int) {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("bench: comparator operand mismatch")
	}
	eqBits := make([]int, len(xs))
	for i := range xs {
		eqBits[i] = b.Xnor(xs[i], ys[i])
	}
	// gt: scan from MSB; x > y at the first differing bit where x=1.
	gt = -1
	higherEq := -1
	for i := len(xs) - 1; i >= 0; i-- {
		ny := b.Not(ys[i])
		bitGT := b.And(xs[i], ny)
		var term int
		if higherEq < 0 {
			term = bitGT
		} else {
			term = b.And(higherEq, bitGT)
		}
		if gt < 0 {
			gt = term
		} else {
			gt = b.Or(gt, term)
		}
		if higherEq < 0 {
			higherEq = eqBits[i]
		} else {
			higherEq = b.And(higherEq, eqBits[i])
		}
	}
	eq = higherEq
	return eq, gt
}

// randomGlue grows the circuit with random 2-input gates over pool until
// the builder holds target gates (or no growth is possible). Newly created
// signals join the pool so the glue forms a deep random DAG. It returns the
// final pool. The glue consumes every pool signal at least once before
// reusing signals, so no primary input is left dangling.
func randomGlue(b *netlist.Builder, rng *stats.RNG, pool []int, target int) []int {
	// Gate mix echoes real ISCAS-85 logic: NAND/NOR/AND/OR dominate, XOR
	// is rare. XOR-heavy random logic relays every input edge and turns
	// the cycle-power tail into a glitch-cascade lottery, which real
	// NAND-dominated circuits do not exhibit.
	kinds := []netlist.Kind{
		netlist.Nand, netlist.Nand, netlist.Nand, netlist.Nor, netlist.Nor,
		netlist.And, netlist.And, netlist.Or, netlist.Or, netlist.Xor,
	}
	// First sweep: make sure every existing pool signal has a consumer.
	// This runs even when the datapath already filled the gate budget —
	// dangling primary inputs are never acceptable.
	for i := 0; i+1 < len(pool); i += 2 {
		k := kinds[rng.Intn(len(kinds))]
		pool = append(pool, b.Gate(k, "", pool[i], pool[i+1]))
	}
	for b.NumGates() < target {
		k := kinds[rng.Intn(len(kinds))]
		a := pool[rng.Intn(len(pool))]
		c := pool[rng.Intn(len(pool))]
		if a == c {
			// Self-pairing an input makes constant-ish gates; invert one arm.
			c = b.Not(c)
			if b.NumGates() >= target {
				pool = append(pool, c)
				break
			}
		}
		pool = append(pool, b.Gate(k, "", a, c))
	}
	return pool
}
