package sim

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
)

func benchStriped(b *testing.B, circuit string, model delay.Model, lanes int) {
	c := bench.MustGenerate(circuit)
	p := CompileModel(c, model, CompileOptions{})
	st := NewSpeculative(p)
	rng := rand.New(rand.NewSource(7))
	inputs := c.NumInputs()
	v1 := make([][]bool, lanes)
	v2 := make([][]bool, lanes)
	for i := range v1 {
		v1[i] = make([]bool, inputs)
		v2[i] = make([]bool, inputs)
		for j := 0; j < inputs; j++ {
			v1[i][j] = rng.Intn(2) == 1
			v2[i][j] = rng.Intn(2) == 1
		}
	}
	pp := packVectors(inputs, v1, v2)
	stripes := (pp.Blocks() + stripeWords - 1) / stripeWords
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < stripes; s++ {
			st.Run(pp, s)
		}
	}
}

// BenchmarkStripedRun measures one stripe of the compiled executor: timed
// C3540 stripes, and zero/C7552/300, the 300-pair zero-delay stripe of
// the stream-zero-wide estimate. That one runs twice: as Run settles it
// (on the AVX-512 kernel where there is one) and on the Go walk.
func BenchmarkStripedRun(b *testing.B) {
	b.Logf("settle kernel: %v", haveSettleKernel)
	b.Run("fanout/512", func(b *testing.B) { benchStriped(b, "C3540", delay.FanoutLoaded{}, 512) })
	b.Run("fanout/300", func(b *testing.B) { benchStriped(b, "C3540", delay.FanoutLoaded{}, 300) })
	b.Run("table/300", func(b *testing.B) { benchStriped(b, "C3540", delay.StandardTable(), 300) })
	b.Run("zero/C7552/300/Run", func(b *testing.B) { benchStriped(b, "C7552", delay.Zero{}, 300) })
	b.Run("zero/C7552/300/go", func(b *testing.B) {
		defer func(k bool) { haveSettleKernel = k }(haveSettleKernel)
		haveSettleKernel = false
		benchStriped(b, "C7552", delay.Zero{}, 300)
	})
}
