package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	var zero int
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zero++
		}
	}
	if zero > 1 {
		t.Fatalf("zero seed produced degenerate stream (%d zeros)", zero)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64MeanVariance(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sq += f * f
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ≈ 0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ≈ 1/12", variance)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from expected %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sq += x * x
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ≈ 1", variance)
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := NewRNG(17)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.ExpFloat64()
		if x < 0 {
			t.Fatalf("exponential variate negative: %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ≈ 1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(19)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(23)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams overlapped %d times", same)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkRNGNormFloat64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

// TestStateRoundTrip captures the state mid-stream and checks that a
// restored generator continues the exact same sequence — the contract
// the estimator's checkpoint/resume seam depends on.
func TestStateRoundTrip(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 137; i++ {
		r.Uint64()
	}
	st := r.State()
	want := make([]uint64, 64)
	for i := range want {
		want[i] = r.Uint64()
	}
	fresh := NewRNG(999) // any state; SetState must fully overwrite it
	fresh.SetState(st)
	for i, w := range want {
		if got := fresh.Uint64(); got != w {
			t.Fatalf("restored stream diverged at step %d: %d != %d", i, got, w)
		}
	}
}

// TestSetStateZeroGuard: the all-zero state is absorbing for
// xoshiro256**; SetState must map it to a working generator.
func TestSetStateZeroGuard(t *testing.T) {
	r := NewRNG(1)
	r.SetState([4]uint64{})
	if a, b := r.Uint64(), r.Uint64(); a == 0 && b == 0 {
		t.Fatal("zero state produced a stuck generator")
	}
}

// TestJumpStreamsDisjoint walks a long prefix of the base stream and of
// its one-jump sibling and requires the two 256-bit state trajectories to
// never intersect. A correct 2^128-step jump makes an intersection within
// any testable prefix impossible; an incorrect jump that lands "nearby"
// (e.g. a small forward skip) is caught because the prefixes would
// overlap almost immediately.
func TestJumpStreamsDisjoint(t *testing.T) {
	const prefix = 1 << 16
	a := NewRNG(99)
	b := NewRNG(99)
	b.Jump()
	seen := make(map[[4]uint64]struct{}, prefix)
	for i := 0; i < prefix; i++ {
		seen[a.State()] = struct{}{}
		a.Uint64()
	}
	for i := 0; i < prefix; i++ {
		if _, hit := seen[b.State()]; hit {
			t.Fatalf("jumped stream re-entered the base trajectory at step %d", i)
		}
		b.Uint64()
	}
}

// TestJumpCommutesWithStepping exercises the linearity Jump relies on:
// jump-then-step-n and step-n-then-jump are the same linear map applied
// in either order, so they must land on the identical state. An
// implementation with a wrong polynomial, wrong bit order, or a missing
// state fold breaks this for almost every n.
func TestJumpCommutesWithStepping(t *testing.T) {
	for _, n := range []int{1, 2, 17, 1000} {
		a := NewRNG(1234)
		a.Jump()
		for i := 0; i < n; i++ {
			a.Uint64()
		}
		b := NewRNG(1234)
		for i := 0; i < n; i++ {
			b.Uint64()
		}
		b.Jump()
		if a.State() != b.State() {
			t.Fatalf("jump does not commute with %d steps:\n jump-first %x\n step-first %x", n, a.State(), b.State())
		}
	}
}

// TestJumpComposesWithStateRoundTrip: capturing the state, jumping, and
// restoring must reproduce the same jumped state — Jump reads nothing
// outside the four state words, so it composes with the checkpoint seam.
func TestJumpComposesWithStateRoundTrip(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 37; i++ {
		r.Uint64()
	}
	saved := r.State()
	r.Jump()
	jumped := r.State()
	firstOut := r.Uint64()

	fresh := NewRNG(0)
	fresh.SetState(saved)
	fresh.Jump()
	if fresh.State() != jumped {
		t.Fatalf("Jump after SetState diverged:\n got  %x\n want %x", fresh.State(), jumped)
	}
	if got := fresh.Uint64(); got != firstOut {
		t.Fatalf("first output after restored jump = %x, want %x", got, firstOut)
	}

	// And restoring the pre-jump state again replays the same jump.
	again := NewRNG(0)
	again.SetState(saved)
	again.Jump()
	if again.State() != jumped {
		t.Fatalf("Jump is not a pure function of the state")
	}
}

// TestJumpDistinctPerShard: the first outputs of k jumped substreams are
// pairwise distinct — the property the shard planner depends on for
// non-overlapping per-shard sampling.
func TestJumpDistinctPerShard(t *testing.T) {
	r := NewRNG(5)
	outs := make(map[uint64]int)
	for k := 0; k < 64; k++ {
		sub := NewRNG(0)
		sub.SetState(r.State())
		v := sub.Uint64()
		if prev, dup := outs[v]; dup {
			t.Fatalf("shards %d and %d share their first output %x", prev, k, v)
		}
		outs[v] = k
		r.Jump()
	}
}

func TestFillMatchesUint64(t *testing.T) {
	for _, n := range []int{0, 1, 3, 64, 257} {
		a, b := NewRNG(uint64(n)+5), NewRNG(uint64(n)+5)
		got := make([]uint64, n)
		a.Fill(got)
		for i, w := range got {
			if want := b.Uint64(); w != want {
				t.Fatalf("Fill(%d) word %d = %#x, Uint64 gives %#x", n, i, w, want)
			}
		}
		if a.State() != b.State() {
			t.Fatalf("Fill(%d) left a different state than %d Uint64 calls", n, n)
		}
	}
}

// boolProbes are the probabilities where the threshold identity is most
// fragile: the clamps, subnormals, 2⁻⁵³ (the smallest non-zero Float64)
// and its neighbours, and the top of the unit interval.
var boolProbes = []float64{
	-1, 0, 5e-324, 0x1p-1060,
	math.Nextafter(0x1p-53, 0), 0x1p-53, math.Nextafter(0x1p-53, 1), 0x1p-52,
	0.3, 0.5, 0.7, math.Nextafter(1-0x1p-53, 0), 1 - 0x1p-53, math.Nextafter(1, 0), 1, 2,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// TestBoolThresholdIdentity checks Float64() < p ⇔ k < BoolThreshold(p)
// for k = Uint64()>>11 directly at the integers where it could break:
// both ends of [0, 2⁵³) and each side of the threshold.
func TestBoolThresholdIdentity(t *testing.T) {
	probes := append([]float64(nil), boolProbes...)
	r := NewRNG(3)
	for i := 0; i < 2000; i++ {
		probes = append(probes, r.Float64(), math.Ldexp(r.Float64(), -r.Intn(80)))
	}
	for _, p := range probes {
		th := BoolThreshold(p)
		if th > 1<<53 {
			t.Fatalf("BoolThreshold(%v) = %d exceeds 2^53", p, th)
		}
		for _, k := range []uint64{0, 1, 2, th - 2, th - 1, th, th + 1, th + 2, 1<<53 - 2, 1<<53 - 1} {
			if k >= 1<<53 {
				continue
			}
			want := float64(k)/(1<<53) < p
			if got := k < th; got != want {
				t.Fatalf("p = %v (threshold %d), k = %d: k < threshold is %v, Float64 < p is %v", p, th, k, got, want)
			}
		}
	}
}

// TestBoolBitsMatchesBool requires BoolBits(BoolThreshold(p), n) to equal
// n Bool(p) calls bit for bit, with zeros above bit n, and to leave the
// same RNG state.
func TestBoolBitsMatchesBool(t *testing.T) {
	for _, p := range boolProbes {
		for _, n := range []int{0, 1, 5, 63, 64} {
			for seed := uint64(1); seed <= 20; seed++ {
				a, b := NewRNG(seed), NewRNG(seed)
				got := a.BoolBits(BoolThreshold(p), n)
				for j := 0; j < n; j++ {
					if bit := got>>uint(j)&1 != 0; bit != b.Bool(p) {
						t.Fatalf("p = %v, n = %d, seed %d: bit %d is %v, Bool disagrees", p, n, seed, j, bit)
					}
				}
				if n < 64 && got>>uint(n) != 0 {
					t.Fatalf("p = %v, n = %d: bits above n set in %#x", p, n, got)
				}
				if a.State() != b.State() {
					t.Fatalf("p = %v, n = %d, seed %d: BoolBits left a different state than Bool", p, n, seed)
				}
			}
		}
	}
}

func TestBoolBitsPanicsPast64(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BoolBits(t, 65) did not panic")
		}
	}()
	NewRNG(1).BoolBits(0, 65)
}
