package bench

import (
	"testing"
	"testing/quick"

	"repro/internal/netlist"
)

// evalCircuit computes the steady-state output values for the given input
// assignment (in Inputs order).
func evalCircuit(c *netlist.Circuit, inputs []bool) []bool {
	vals := make([]bool, len(c.Gates))
	for i, idx := range c.Inputs {
		vals[idx] = inputs[i]
	}
	var buf []bool
	for i, g := range c.Gates {
		if g.Kind == netlist.Input {
			continue
		}
		buf = buf[:0]
		for _, f := range g.Fanin {
			buf = append(buf, vals[f])
		}
		vals[i] = g.Kind.Eval(buf)
	}
	out := make([]bool, len(c.Outputs))
	for i, o := range c.Outputs {
		out[i] = vals[o]
	}
	return out
}

func bitsOf(v uint64, n int) []bool {
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = v&(1<<i) != 0
	}
	return bs
}

func toUint(bs []bool) uint64 {
	var v uint64
	for i, b := range bs {
		if b {
			v |= 1 << i
		}
	}
	return v
}

func TestRippleAdderCin(t *testing.T) {
	const n = 6
	b := netlist.NewBuilder("addc")
	xs := b.Inputs("x", n)
	ys := b.Inputs("y", n)
	cin := b.Input("cin")
	sums, cout := rippleAdderCin(b, xs, ys, cin)
	for _, s := range sums {
		b.Output(s)
	}
	b.Output(cout)
	c := b.MustBuild()

	for a := uint64(0); a < 64; a += 7 {
		for bb := uint64(0); bb < 64; bb += 5 {
			for ci := uint64(0); ci < 2; ci++ {
				in := append(bitsOf(a, n), bitsOf(bb, n)...)
				in = append(in, ci == 1)
				got := toUint(evalCircuit(c, in))
				if got != a+bb+ci {
					t.Fatalf("%d+%d+%d = %d, want %d", a, bb, ci, got, a+bb+ci)
				}
			}
		}
	}
}

func TestArrayMultiplierCorrect(t *testing.T) {
	const n = 6
	b := netlist.NewBuilder("mul")
	xs := b.Inputs("x", n)
	ys := b.Inputs("y", n)
	prod := arrayMultiplier(b, xs, ys)
	if len(prod) != 2*n {
		t.Fatalf("product width %d", len(prod))
	}
	for _, p := range prod {
		b.Output(p)
	}
	c := b.MustBuild()

	if err := quick.Check(func(aRaw, bRaw uint8) bool {
		a, bb := uint64(aRaw%64), uint64(bRaw%64)
		in := append(bitsOf(a, n), bitsOf(bb, n)...)
		return toUint(evalCircuit(c, in)) == a*bb
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestArrayMultiplierExhaustive4(t *testing.T) {
	const n = 4
	b := netlist.NewBuilder("mul4")
	xs := b.Inputs("x", n)
	ys := b.Inputs("y", n)
	for _, p := range arrayMultiplier(b, xs, ys) {
		b.Output(p)
	}
	c := b.MustBuild()
	for a := uint64(0); a < 16; a++ {
		for bb := uint64(0); bb < 16; bb++ {
			in := append(bitsOf(a, n), bitsOf(bb, n)...)
			if got := toUint(evalCircuit(c, in)); got != a*bb {
				t.Fatalf("%d*%d = %d", a, bb, got)
			}
		}
	}
}

func TestXorTreeParity(t *testing.T) {
	const n = 13
	b := netlist.NewBuilder("par")
	ins := b.Inputs("x", n)
	b.Output(xorTree(b, ins))
	c := b.MustBuild()
	if err := quick.Check(func(v uint16) bool {
		in := bitsOf(uint64(v)&(1<<n-1), n)
		want := false
		for _, bit := range in {
			want = want != bit
		}
		return evalCircuit(c, in)[0] == want
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOrTree(t *testing.T) {
	const n = 9
	b := netlist.NewBuilder("or")
	ins := b.Inputs("x", n)
	b.Output(orTree(b, ins))
	c := b.MustBuild()
	zero := make([]bool, n)
	if evalCircuit(c, zero)[0] {
		t.Error("OR of zeros is true")
	}
	for i := 0; i < n; i++ {
		in := make([]bool, n)
		in[i] = true
		if !evalCircuit(c, in)[0] {
			t.Errorf("OR missed bit %d", i)
		}
	}
}

func TestMux2(t *testing.T) {
	b := netlist.NewBuilder("mux")
	a := b.Input("a")
	bb := b.Input("b")
	s := b.Input("s")
	b.Output(mux2(b, a, bb, s))
	c := b.MustBuild()
	for _, tc := range []struct{ a, b, s, want bool }{
		{false, true, false, false},
		{false, true, true, true},
		{true, false, false, true},
		{true, false, true, false},
	} {
		if got := evalCircuit(c, []bool{tc.a, tc.b, tc.s})[0]; got != tc.want {
			t.Errorf("mux(%v,%v,%v) = %v", tc.a, tc.b, tc.s, got)
		}
	}
}

func TestHammingSECCorrectsSingleError(t *testing.T) {
	// Build: encode data -> checks; flip one data bit; decode must recover.
	const dataBits = 16
	const checks = 5
	enc := netlist.NewBuilder("hamming")
	data := enc.Inputs("d", dataBits)
	recv := enc.Inputs("c", checks)
	syn := hammingSyndrome(enc, data, checks)
	diff := make([]int, checks)
	for i := range diff {
		diff[i] = enc.Gate(netlist.Xor, "", syn[i], recv[i])
	}
	corrected := hammingCorrector(enc, data, diff)
	for _, s := range corrected {
		enc.Output(s)
	}
	c := enc.MustBuild()

	// Reference syndrome computation in plain Go.
	computeChecks := func(d []bool) []bool {
		cs := make([]bool, checks)
		for k := 0; k < checks; k++ {
			any := false
			for i := 0; i < dataBits; i++ {
				if (i+1)&(1<<k) != 0 {
					any = true
					cs[k] = cs[k] != d[i]
				}
			}
			if !any {
				cs[k] = d[k%dataBits]
			}
		}
		return cs
	}

	if err := quick.Check(func(v uint16, flipRaw uint8) bool {
		d := bitsOf(uint64(v), dataBits)
		cs := computeChecks(d)
		corrupted := append([]bool(nil), d...)
		flip := int(flipRaw) % dataBits
		corrupted[flip] = !corrupted[flip]
		out := evalCircuit(c, append(corrupted, cs...))
		for i := range d {
			if out[i] != d[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHammingNoErrorPassThrough(t *testing.T) {
	const dataBits = 8
	const checks = 4
	enc := netlist.NewBuilder("h2")
	data := enc.Inputs("d", dataBits)
	recv := enc.Inputs("c", checks)
	syn := hammingSyndrome(enc, data, checks)
	diff := make([]int, checks)
	for i := range diff {
		diff[i] = enc.Gate(netlist.Xor, "", syn[i], recv[i])
	}
	for _, s := range hammingCorrector(enc, data, diff) {
		enc.Output(s)
	}
	c := enc.MustBuild()

	computeChecks := func(d []bool) []bool {
		cs := make([]bool, checks)
		for k := 0; k < checks; k++ {
			any := false
			for i := 0; i < dataBits; i++ {
				if (i+1)&(1<<k) != 0 {
					any = true
					cs[k] = cs[k] != d[i]
				}
			}
			if !any {
				cs[k] = d[k%dataBits]
			}
		}
		return cs
	}
	for v := uint64(0); v < 256; v++ {
		d := bitsOf(v, dataBits)
		out := evalCircuit(c, append(append([]bool{}, d...), computeChecks(d)...))
		for i := range d {
			if out[i] != d[i] {
				t.Fatalf("value %d corrupted without error", v)
			}
		}
	}
}

func TestALUFunctions(t *testing.T) {
	const n = 4
	b := netlist.NewBuilder("alu")
	xs := b.Inputs("x", n)
	ys := b.Inputs("y", n)
	cin := b.Input("cin")
	s0 := b.Input("s0")
	s1 := b.Input("s1")
	res, cout := alu(b, xs, ys, cin, s0, s1)
	for _, r := range res {
		b.Output(r)
	}
	b.Output(cout)
	c := b.MustBuild()

	for a := uint64(0); a < 16; a++ {
		for bb := uint64(0); bb < 16; bb++ {
			for f := 0; f < 4; f++ {
				in := append(bitsOf(a, n), bitsOf(bb, n)...)
				in = append(in, false, f&1 != 0, f&2 != 0)
				out := evalCircuit(c, in)
				got := toUint(out[:n])
				var want uint64
				switch f {
				case 0: // s1=0 s0=0 → AND
					want = a & bb
				case 1: // s1=0 s0=1 → OR
					want = a | bb
				case 2: // s1=1 s0=0 → XOR
					want = a ^ bb
				case 3: // s1=1 s0=1 → ADD (mod 2^n here)
					want = (a + bb) & (1<<n - 1)
				}
				if got != want {
					t.Fatalf("alu f=%d a=%d b=%d: got %d want %d", f, a, bb, got, want)
				}
			}
		}
	}
}

func TestPriorityEncoder(t *testing.T) {
	const n = 5
	b := netlist.NewBuilder("prio")
	req := b.Inputs("r", n)
	grants, any := priorityEncoder(b, req)
	for _, g := range grants {
		b.Output(g)
	}
	b.Output(any)
	c := b.MustBuild()

	for v := uint64(0); v < 1<<n; v++ {
		in := bitsOf(v, n)
		out := evalCircuit(c, in)
		first := -1
		for i := 0; i < n; i++ {
			if in[i] {
				first = i
				break
			}
		}
		for i := 0; i < n; i++ {
			want := i == first
			if out[i] != want {
				t.Fatalf("v=%b grant[%d] = %v, want %v", v, i, out[i], want)
			}
		}
		if out[n] != (first >= 0) {
			t.Fatalf("v=%b any = %v", v, out[n])
		}
	}
}

func TestComparator(t *testing.T) {
	const n = 5
	b := netlist.NewBuilder("cmp")
	xs := b.Inputs("x", n)
	ys := b.Inputs("y", n)
	eq, gt := comparator(b, xs, ys)
	b.Output(eq)
	b.Output(gt)
	c := b.MustBuild()

	for a := uint64(0); a < 1<<n; a++ {
		for bb := uint64(0); bb < 1<<n; bb++ {
			out := evalCircuit(c, append(bitsOf(a, n), bitsOf(bb, n)...))
			if out[0] != (a == bb) || out[1] != (a > bb) {
				t.Fatalf("cmp(%d,%d) = eq:%v gt:%v", a, bb, out[0], out[1])
			}
		}
	}
}

func TestBlockPanics(t *testing.T) {
	b := netlist.NewBuilder("p")
	x := b.Input("x")
	cases := map[string]func(){
		"rippleAdderCin mismatch": func() { rippleAdderCin(b, []int{x}, nil, x) },
		"xorTree empty":           func() { xorTree(b, nil) },
		"orTree empty":            func() { orTree(b, nil) },
		"alu mismatch":            func() { alu(b, []int{x}, nil, x, x, x) },
		"prio empty":              func() { priorityEncoder(b, nil) },
		"cmp mismatch":            func() { comparator(b, []int{x}, nil) },
		"mult mismatch":           func() { arrayMultiplier(b, []int{x}, nil) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
