package power

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/sim"
	"repro/internal/stats"
)

// logFold logs which fold stripeMW runs on this host, and that the
// AVX-512 half of the comparison is skipped where it cannot run.
func logFold(tb testing.TB) {
	tb.Helper()
	if haveAVX512 {
		tb.Log("stripeMW fold: AVX-512")
		return
	}
	tb.Log("stripeMW fold: Go; skipping the AVX-512 half: this host lacks AVX-512F and AVX-512BW")
}

// runFolds folds r with the Go fold and, where the host has AVX-512,
// with the assembly one, and fails unless the two sums agree bit for bit
// in every lane. It returns the Go fold's sums.
func runFolds(t *testing.T, e *Evaluator, r *sim.StripedResult, what string) []float64 {
	t.Helper()
	goAcc := make([]float64, r.AW*64)
	e.foldGo(r, goAcc)
	if !haveAVX512 {
		return goAcc
	}
	simdAcc := make([]float64, r.AW*64)
	e.foldAVX512(r, simdAcc)
	for l := range goAcc {
		if math.Float64bits(simdAcc[l]) != math.Float64bits(goAcc[l]) {
			t.Fatalf("%s lane %d: AVX-512 fold %v (%#x), Go fold %v (%#x)", what, l,
				simdAcc[l], math.Float64bits(simdAcc[l]), goAcc[l], math.Float64bits(goAcc[l]))
		}
	}
	return goAcc
}

// TestStripeFoldDifferential compares the AVX-512 fold with the Go fold
// on every lane, and both (through stripeMW's dispatch) with per-pair
// CyclePowerMW, bit for bit, on stripes from the production speculative
// engine: five ISCAS circuits under zero, unit, fanout and table delay,
// stripes of 1 to 8 active words, every one but the first with a ragged
// last word. The timed rows reach overflow lanes (count ≥ 4), so the
// kernel's early returns and resumes run too. On hosts without AVX-512
// only the Go half runs.
func TestStripeFoldDifferential(t *testing.T) {
	logFold(t)
	const maxPairs = 8 * 64
	models := []delay.Model{delay.Zero{}, delay.Unit{}, delay.FanoutLoaded{}, delay.StandardTable()}
	overflowWords := 0
	for _, name := range []string{"C432", "C880", "C3540", "C6288", "C7552"} {
		c := bench.MustGenerate(name)
		nIn := c.NumInputs()
		v1s := make([][]bool, maxPairs)
		v2s := make([][]bool, maxPairs)
		for i := range v1s {
			v1s[i] = kernelPattern(nIn, uint64(7*i+1))
			v2s[i] = kernelPattern(nIn, uint64(7*i+4))
		}
		for _, m := range models {
			e := NewEvaluator(c, m, Params{})
			e.acc = make([]float64, maxPairs)
			sp := sim.NewSpeculative(e.program())
			// The scalar oracle checks every third pair and each batch's
			// last one; the two folds are compared on every lane.
			oracle := make(map[int]float64)
			want := func(i int) float64 {
				p, ok := oracle[i]
				if !ok {
					p = e.CyclePowerMW(v1s[i], v2s[i])
					oracle[i] = p
				}
				return p
			}
			for aw := 1; aw <= 8; aw++ {
				n := 64*aw - 9*(aw-1)
				var pp sim.PackedPairs
				pp.Reset(nIn, n)
				for i := 0; i < n; i++ {
					pp.SetPair(i, v1s[i], v2s[i])
				}
				r := sp.Run(&pp, 0)
				if r.AW != aw {
					t.Fatalf("%d pairs ran at %d words, want %d", n, r.AW, aw)
				}
				what := name + "/" + m.Name()
				acc := runFolds(t, e, r, what)
				out := make([]float64, n)
				e.stripeMW(r, out)
				for i := 0; i < n; i++ {
					if i%3 != 0 && i != n-1 {
						continue
					}
					w := want(i)
					if got := (acc[i]/e.clockS + e.leakW) * 1e3; got != w {
						t.Fatalf("%s aw %d pair %d: fold %v, CyclePowerMW %v", what, aw, i, got, w)
					}
					if out[i] != w {
						t.Fatalf("%s aw %d pair %d: stripeMW %v, CyclePowerMW %v", what, aw, i, out[i], w)
					}
				}
				for l := n; l < aw*64; l++ {
					if acc[l] != 0 {
						t.Fatalf("%s aw %d: inert lane %d folded %v", what, aw, l, acc[l])
					}
				}
				if _, ov := r.CountPlanes(); ov != nil {
					for _, w := range ov[:r.NSlots*aw] {
						if w != 0 {
							overflowWords++
						}
					}
				}
			}
		}
	}
	if overflowWords == 0 {
		t.Fatal("no word had an overflow lane: the fold's resume path went untested")
	}
	t.Logf("%d words with overflow lanes", overflowWords)
}

// FuzzStripeFold compares the two folds and the scalar energy sum on
// synthetic stripes: 1–8 words, up to 48 slots, per-lane toggle counts
// up to 15 (so multi ⊆ any and ov ⊆ multi by construction, and the
// kernel returns at overflow words and resumes), random non-negative
// slot energies and glitch weights. Zero-delay stripes take counts of 0
// and 1 alone.
func FuzzStripeFold(f *testing.F) {
	logFold(f)
	for i, seed := range []uint64{1, 2, 3, 42, 1 << 40, 99, 12345, 7} {
		f.Add(seed, uint8(i*37), uint8(i*11), uint8(i*53))
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape, density, scale uint8) {
		rng := stats.NewRNG(seed)
		aw := 1 + int(shape%8)
		nslots := 1 + int(shape/8)%48
		zero := density&1 != 0
		// Lanes toggle with probability 1/2ⁱ for a density-picked i, and a
		// toggling lane counts 1–15 with weights falling off from 1.
		sparse := uint(density>>1) % 6
		counts := make([][64]uint8, nslots*aw)
		for i := range counts {
			for l := range counts[i] {
				if rng.Uint64()&(1<<sparse-1) != 0 {
					continue
				}
				c := uint8(1)
				if !zero {
					c += uint8(geometric(rng, 14))
				}
				counts[i][l] = c
			}
		}
		r := sim.NewStripedResult(aw, counts, zero)
		energy := make([]float64, nslots)
		for s := range energy {
			switch scale % 5 {
			case 0:
				energy[s] = rng.Float64() * 1e-13
			case 1:
				energy[s] = math.Ldexp(rng.Float64(), -1074+int(rng.Uint64()%64)) // subnormal
			case 2:
				energy[s] = math.Ldexp(rng.Float64(), int(rng.Uint64()%2048)-1074)
			case 3:
				energy[s] = float64(rng.Uint64() % 4)
			default:
				energy[s] = math.MaxFloat64 * rng.Float64() // sums overflow to +Inf
			}
		}
		glitch := float64(scale)/255 + 1e-3
		e := &Evaluator{glitch: min(glitch, 1), energyW: energy}
		acc := runFolds(t, e, r, "fuzz")
		toggles := make([]int32, nslots)
		for l := 0; l < aw*64; l++ {
			toggles = r.Toggles(l/64, l%64, toggles)
			if want := e.energyOf(toggles); math.Float64bits(acc[l]) != math.Float64bits(want) {
				t.Fatalf("lane %d: fold %v, energyOf %v", l, acc[l], want)
			}
		}
	})
}

// geometric returns n with probability 2⁻⁽ⁿ⁺¹⁾, capped at limit.
func geometric(rng *stats.RNG, limit int) int {
	n := 0
	for n < limit && rng.Uint64()&1 == 0 {
		n++
	}
	return n
}

// BenchmarkStripeFold times the two folds alone on one 300-pair stripe
// (the estimator's hyper-sample) of the wide zero-delay and the timed
// benchmark workloads.
func BenchmarkStripeFold(b *testing.B) {
	for _, w := range []struct {
		circuit string
		model   delay.Model
	}{{"C7552", delay.Zero{}}, {"C3540", delay.FanoutLoaded{}}} {
		c := bench.MustGenerate(w.circuit)
		e := NewEvaluator(c, w.model, Params{})
		const n = 300
		var pp sim.PackedPairs
		pp.Reset(c.NumInputs(), n)
		for i := 0; i < n; i++ {
			pp.SetPair(i, kernelPattern(c.NumInputs(), uint64(7*i+1)), kernelPattern(c.NumInputs(), uint64(7*i+4)))
		}
		r := sim.NewSpeculative(e.program()).Run(&pp, 0)
		acc := make([]float64, r.AW*64)
		run := func(name string, fold func(*sim.StripedResult, []float64)) {
			b.Run(w.circuit+"/"+w.model.Name()+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clear(acc)
					fold(r, acc)
				}
			})
		}
		run("go", e.foldGo)
		if haveAVX512 {
			run("avx512", e.foldAVX512)
		}
	}
}
