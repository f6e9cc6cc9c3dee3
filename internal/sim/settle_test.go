package sim

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/netlist"
)

// settlePairs are the batch sizes the settle tests run: one lane, each
// side of a block boundary, every active word count from 1 to 8 (64·k
// pairs for k words), the estimator's 300-pair hyper-sample (five words),
// each side of a full 512-pair stripe, and batches of two and three
// stripes with a ragged last one.
var settlePairs = []int{1, 63, 64, 65, 128, 192, 256, 300, 320, 384, 448, 511, 512, 513, 1100}

// settleGuard is the value every word past a plane's stride holds
// before a settle and must hold after it.
const settleGuard = 0xA5A5_5A5A_C3C3_3C3C

// settleRef settles vals from the circuit's own gate kinds and fan-in
// lists, word by word, with none of the compiled opcodes, offsets or op
// rows: the reference the Go walk is checked against.
func settleRef(p *Program, vals []uint64, aw int) {
	for s := range p.c.Gates {
		g := &p.c.Gates[s]
		if g.Kind == netlist.Input {
			continue
		}
		for k := 0; k < aw; k++ {
			acc := vals[g.Fanin[0]*aw+k]
			for _, f := range g.Fanin[1:] {
				w := vals[f*aw+k]
				switch g.Kind {
				case netlist.And, netlist.Nand:
					acc &= w
				case netlist.Or, netlist.Nor:
					acc |= w
				case netlist.Xor, netlist.Xnor:
					acc ^= w
				}
			}
			switch g.Kind {
			case netlist.Not, netlist.Nand, netlist.Nor, netlist.Xnor:
				acc = ^acc
			}
			vals[s*aw+k] = acc
		}
	}
}

// settleBatch packs pairs seeded random vector pairs.
func settleBatch(inputs, pairs int, seed uint64) *PackedPairs {
	return packVectors(inputs, xorshiftVectors(pairs, inputs, seed), xorshiftVectors(pairs, inputs, seed+1))
}

// settlePlanes returns three planes of stride words, each followed by
// eight guard words, with both value planes' input slots loaded from
// the stripe.
func settlePlanes(st *Speculative, pp *PackedPairs, b0 int) (v1, v2, d []uint64) {
	buf := make([]uint64, 3*(st.stride+8))
	for i := range buf {
		buf[i] = settleGuard
	}
	n := st.stride + 8
	v1, v2, d = buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
	st.loadInputs(v1, pp.In1, b0)
	st.loadInputs(v2, pp.In2, b0)
	return v1, v2, d
}

// checkSettle settles every stripe of pp on the Go walk and checks it
// against settleRef. It then checks each walk — the Go walk and, where
// it runs, the kernel — against that Go walk, word for word: with d set
// and with d nil. No call may touch a word past the stride, nor d when d
// is nil.
func checkSettle(t *testing.T, name string, p *Program, pp *PackedPairs) {
	t.Helper()
	st := NewSpeculative(p)
	type walk struct {
		name   string
		settle func(v1, v2, d []uint64)
	}
	walks := []walk{{"Go walk", st.settleGo}}
	if haveSettleKernel {
		walks = append(walks, walk{"kernel", st.settle})
	}
	for stripe := 0; stripe*stripeWords < pp.Blocks(); stripe++ {
		b0 := st.prepare(pp, stripe)
		stride := st.stride
		at := fmt.Sprintf("%s %d pairs stripe %d", name, pp.N, stripe)

		g1, g2, gd := settlePlanes(st, pp, b0)
		want1, want2, _ := settlePlanes(st, pp, b0)
		settleRef(p, want1, st.aw)
		settleRef(p, want2, st.aw)
		st.settleGo(g1, g2, gd)
		for i := 0; i < stride; i++ {
			if g1[i] != want1[i] || g2[i] != want2[i] || gd[i] != want1[i]^want2[i] {
				t.Fatalf("%s word %d: Go walk (%#x, %#x, d %#x), reference (%#x, %#x)",
					at, i, g1[i], g2[i], gd[i], want1[i], want2[i])
			}
		}
		checkGuards(t, at+" Go walk", stride, g1, g2, gd)

		for _, w := range walks {
			for _, withD := range []bool{true, false} {
				v1, v2, d := settlePlanes(st, pp, b0)
				if withD {
					w.settle(v1, v2, d)
				} else {
					w.settle(v1, v2, nil)
				}
				for i := 0; i < stride; i++ {
					if v1[i] != g1[i] || v2[i] != g2[i] || withD && d[i] != gd[i] {
						t.Fatalf("%s %s d=%v word %d: (%#x, %#x, d %#x), Go walk (%#x, %#x, d %#x)",
							at, w.name, withD, i, v1[i], v2[i], d[i], g1[i], g2[i], gd[i])
					}
				}
				if !withD {
					checkGuards(t, at+" "+w.name+" with d nil", 0, d)
				}
				checkGuards(t, fmt.Sprintf("%s %s d=%v", at, w.name, withD), stride, v1, v2, d)
			}
		}
	}
}

func checkGuards(t *testing.T, at string, stride int, planes ...[]uint64) {
	t.Helper()
	for j, pl := range planes {
		for i, w := range pl[stride:] {
			if w != settleGuard {
				t.Fatalf("%s: plane %d guard word %d is %#x", at, j, i, w)
			}
		}
	}
}

// settleRandomCircuit is the seeded random DAG the settle tests and the
// fuzz target share: up to maxFan inputs a gate, so the kernel returns
// at, and resumes after, three-to-five-input slots.
func settleRandomCircuit(seed uint64, gates, maxFan int) (*netlist.Circuit, error) {
	return bench.RandomCircuit(bench.RandomOptions{
		Inputs:  3 + int(seed%40),
		Outputs: 1 + int(seed%5),
		Gates:   gates,
		MaxFan:  maxFan,
		Seed:    seed,
	})
}

// TestSettleKernelMatchesGo pins settle's two walks: the Go walk against
// a word-level evaluation of the netlist, and the AVX-512 kernel against
// the Go walk, word for word, on the nine ISCAS circuits and 50 random
// DAGs with up to five inputs a gate, at every active word count from 1
// to 8 and batch sizes on both sides of block and stripe boundaries.
func TestSettleKernelMatchesGo(t *testing.T) {
	t.Logf("settle kernel: %v", haveSettleKernel)
	var circuits []*netlist.Circuit
	for _, name := range bench.Names() {
		circuits = append(circuits, bench.MustGenerate(name))
	}
	for seed := uint64(1); seed <= 50; seed++ {
		c, err := settleRandomCircuit(seed, 20+int(seed*37%300), 2+int(seed%4))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		circuits = append(circuits, c)
	}
	for ci, c := range circuits {
		p := CompileModel(c, delay.Zero{}, CompileOptions{})
		for i, pairs := range settlePairs {
			checkSettle(t, c.Name, p, settleBatch(c.NumInputs(), pairs, uint64(ci*64+i)))
		}
	}
}

// FuzzSettle runs checkSettle on random DAGs of up to 600 gates with two
// to five inputs a gate, on 1–1,024 pairs.
func FuzzSettle(f *testing.F) {
	f.Logf("settle kernel: %v", haveSettleKernel)
	for i, pairs := range settlePairs {
		f.Add(uint64(i+1), uint16(40+i*30), uint8(2+i%4), uint16(pairs))
	}
	f.Fuzz(func(t *testing.T, seed uint64, gates uint16, maxFan uint8, pairs uint16) {
		c, err := settleRandomCircuit(seed, 1+int(gates%600), 2+int(maxFan%4))
		if err != nil {
			t.Skip(err)
		}
		n := int(pairs) % (2 * ChunkPairs)
		if n == 0 {
			n = 2 * ChunkPairs
		}
		p := CompileModel(c, delay.Zero{}, CompileOptions{})
		checkSettle(t, c.Name, p, settleBatch(c.NumInputs(), n, seed))
	})
}
