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

// runFolds folds every mask plane of r, Any and each count plane, with
// the Go fold and, where the host has AVX-512, with the assembly one,
// and fails unless the two agree in every lane. It also fails on a lane
// past lanes that sums anything: those lanes never toggle.
func runFolds(t *testing.T, weights []int32, r *sim.StripedResult, lanes int, what string) {
	t.Helper()
	planes := [][]uint64{r.Any}
	for l := range r.Levels() {
		planes = append(planes, r.CountPlane(l))
	}
	goAcc := make([]int32, r.AW*64)
	simdAcc := make([]int32, r.AW*64)
	for l, masks := range planes {
		foldGo(goAcc, weights, masks, r.AW)
		for i := lanes; i < len(goAcc); i++ {
			if goAcc[i] != 0 {
				t.Fatalf("%s plane %d: inert lane %d folded %d", what, l, i, goAcc[i])
			}
		}
		if !haveAVX512 {
			continue
		}
		foldSIMD(simdAcc, weights, masks, r.AW)
		for i := range goAcc {
			if simdAcc[i] != goAcc[i] {
				t.Fatalf("%s plane %d lane %d: AVX-512 fold %d, Go fold %d", what, l, i, simdAcc[i], goAcc[i])
			}
		}
	}
}

// TestStripeFoldDifferential compares the AVX-512 fold with the Go fold
// on every lane of every mask plane, and stripeMW's powers with
// per-pair CyclePowerMW, bit for bit, on stripes from the production
// speculative engine: five ISCAS circuits under zero, unit, fanout and
// table delay, stripes of 1 to 8 active words, every one but the first
// with a ragged last word. The timed rows reach counts of 4 and more, so
// deep count planes are folded too. On hosts without AVX-512 only the Go
// half runs.
func TestStripeFoldDifferential(t *testing.T) {
	logFold(t)
	const maxPairs = 8 * 64
	models := []delay.Model{delay.Zero{}, delay.Unit{}, delay.FanoutLoaded{}, delay.StandardTable()}
	deep := 0
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
			e.acc, e.n = make([]int32, 2*maxPairs), make([]int64, maxPairs)
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
				runFolds(t, e.weights, r, n, what)
				out := make([]float64, n)
				e.stripeMW(r, out)
				for i := 0; i < n; i++ {
					if i%3 != 0 && i != n-1 {
						continue
					}
					if w := want(i); math.Float64bits(out[i]) != math.Float64bits(w) {
						t.Fatalf("%s aw %d pair %d: stripeMW %v, CyclePowerMW %v", what, aw, i, out[i], w)
					}
				}
				if r.Levels() > 2 {
					deep++
				}
			}
		}
	}
	if deep == 0 {
		t.Fatal("no stripe reached a count of 4: the deep count planes went unfolded")
	}
	t.Logf("%d stripes with deep count planes", deep)
}

// FuzzStripeFold compares the two folds, stripeMW and the scalar
// powerOf on synthetic stripes: 1–8 words, up to 48 slots, per-lane
// toggle counts up to 255, so up to eight count planes are folded, and
// random weights, glitch weights and leakage. Some weight draws sum to
// just under maxLaneSum, where a lane with every slot toggled would wrap
// if any fold summed past int32. Zero-delay stripes take counts of 0 and
// 1 alone.
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
		// toggling lane counts 1–255, most often a few, sometimes deep.
		sparse := uint(density>>1) % 6
		counts := make([][64]uint8, nslots*aw)
		for i := range counts {
			for l := range counts[i] {
				if rng.Uint64()&(1<<sparse-1) != 0 {
					continue
				}
				c := uint8(1)
				if !zero {
					if rng.Uint64()%16 == 0 {
						c = uint8(1 + rng.Uint64()%255)
					} else {
						c += uint8(geometric(rng, 14))
					}
				}
				counts[i][l] = c
			}
		}
		r := sim.NewStripedResult(aw, counts, zero)
		weights := make([]int32, nslots)
		for s := range weights {
			switch scale % 3 {
			case 0:
				weights[s] = int32(rng.Uint64() % 2048)
			case 1:
				weights[s] = int32(rng.Uint64() % 4)
			default:
				weights[s] = int32(maxLaneSum/nslots - int(rng.Uint64()%8))
			}
		}
		e := &Evaluator{
			weights: weights,
			unitW:   1e-6 * float64(1+scale),
			leakW:   float64(scale%4) * 1e-7,
			glitch:  min(float64(scale)/255+1e-3, 1),
			acc:     make([]int32, 2*aw*64),
			n:       make([]int64, aw*64),
		}
		runFolds(t, weights, r, aw*64, "fuzz")
		out := make([]float64, aw*64)
		e.stripeMW(r, out)
		toggles := make([]int32, nslots)
		for l := range out {
			toggles = r.Toggles(l/64, l%64, toggles)
			if want := e.powerOf(toggles); math.Float64bits(out[l]) != math.Float64bits(want) {
				t.Fatalf("lane %d: stripeMW %v, powerOf %v", l, out[l], want)
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

// BenchmarkStripeFold times the two folds alone, over Any and every
// count plane, on one 300-pair stripe (the estimator's hyper-sample) of
// the wide zero-delay and the timed benchmark workloads.
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
		acc := make([]int32, r.AW*64)
		run := func(name string, fold func(acc, weights []int32, masks []uint64, aw int)) {
			b.Run(w.circuit+"/"+w.model.Name()+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fold(acc, e.weights, r.Any, r.AW)
					for l := range r.Levels() {
						fold(acc, e.weights, r.CountPlane(l), r.AW)
					}
				}
			})
		}
		run("go", foldGo)
		if haveAVX512 {
			run("avx512", foldSIMD)
		}
	}
}
