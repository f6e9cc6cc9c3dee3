package stats

import "testing"

// serialLanes returns eight generators, lane l at r's state advanced
// l·d draws by Uint64: the reference each lane of Lanes.Start(r, d)
// must follow.
func serialLanes(r *RNG, d uint64) [8]RNG {
	var ref [8]RNG
	s := *r
	for l := range ref {
		ref[l] = s
		for i := uint64(0); i < d; i++ {
			s.Uint64()
		}
	}
	return ref
}

func checkLaneStates(t *testing.T, ls *Lanes, ref *[8]RNG, what string) {
	t.Helper()
	for l := range ref {
		if ls.State(l) != ref[l].State() {
			t.Fatalf("%s: lane %d state %#x, serial %#x", what, l, ls.State(l), ref[l].State())
		}
	}
}

// TestLanesMatchSerial holds every Lanes operation to serial draws: for
// jump distances 0, 1, 7, 300 and random ones, every lane's start state,
// uniform words, Float64s and Bernoulli bits (n = 0…64, thresholds 0, 1,
// 2⁵³−1, 2⁵³ and random, per lane and per draw), and every end state,
// must equal those of a generator that made the same draws one Uint64 or
// BoolBits call at a time.
func TestLanesMatchSerial(t *testing.T) {
	t.Logf("lane kernel: %v", LaneKernel())
	checkLanesMatchSerial(t)
}

func checkLanesMatchSerial(t *testing.T) {
	pick := NewRNG(3)
	thresholds := func() uint64 {
		switch pick.Intn(6) {
		case 0:
			return 0
		case 1:
			return 1
		case 2:
			return 1<<53 - 1
		case 3:
			return 1 << 53
		}
		return pick.Uint64() >> 11
	}
	ds := []uint64{0, 1, 7, 300}
	for i := 0; i < 4; i++ {
		ds = append(ds, pick.Uint64()>>48)
	}
	for _, d := range ds {
		r := NewRNG(d + 11)
		r.Uint64()
		var ls Lanes
		ls.Start(r, d)
		ref := serialLanes(r, d)
		checkLaneStates(t, &ls, &ref, "start")

		dst := make([]uint64, 8*9)
		for k := 0; k <= 9; k++ {
			stride := 9
			ls.Fill(dst, stride, k)
			for l := range ref {
				for j := 0; j < k; j++ {
					if w := ref[l].Uint64(); dst[l*stride+j] != w {
						t.Fatalf("d %d: Fill(%d) lane %d word %d is %#x, serial %#x", d, k, l, j, dst[l*stride+j], w)
					}
				}
			}
			checkLaneStates(t, &ls, &ref, "Fill")
		}
		var u [8]float64
		ls.Float64s(&u)
		for l := range ref {
			if f := ref[l].Float64(); u[l] != f {
				t.Fatalf("d %d: Float64s lane %d is %v, serial %v", d, l, u[l], f)
			}
		}
		for n := 0; n <= 64; n++ {
			var th, bits [8]uint64
			for l := range th {
				th[l] = thresholds()
			}
			ls.BoolBits(&bits, &th, n)
			for l := range ref {
				if want := ref[l].BoolBits(th[l], n); bits[l] != want {
					t.Fatalf("d %d: BoolBits(n=%d) lane %d (t=%#x) is %#x, serial %#x", d, n, l, th[l], bits[l], want)
				}
			}
			checkLaneStates(t, &ls, &ref, "BoolBits")

			each := make([]uint64, n)
			for j := range each {
				each[j] = thresholds()
			}
			ls.BoolBitsEach(&bits, each)
			for l := range ref {
				var want uint64
				for j, tj := range each {
					want |= ref[l].BoolBits(tj, 1) << uint(j)
				}
				if bits[l] != want {
					t.Fatalf("d %d: BoolBitsEach(n=%d) lane %d is %#x, serial %#x", d, n, l, bits[l], want)
				}
			}
			checkLaneStates(t, &ls, &ref, "BoolBitsEach")
		}
	}
}

// TestLanesFillBounds checks that Fill refuses shapes that would write
// past dst or make the lanes' words overlap.
func TestLanesFillBounds(t *testing.T) {
	var ls Lanes
	ls.Start(NewRNG(1), 5)
	for _, c := range []struct{ n, stride, k int }{{8*4 - 1, 4, 4}, {64, 2, 3}, {64, 4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fill(%d words, stride %d, k %d) did not panic", c.n, c.stride, c.k)
				}
			}()
			ls.Fill(make([]uint64, c.n), c.stride, c.k)
		}()
	}
	ls.Fill(nil, 0, 0) // no draws, no words
}

func BenchmarkLanes(b *testing.B) {
	b.Logf("lane kernel: %v", LaneKernel())
	r := NewRNG(1)
	b.Run("Start", func(b *testing.B) {
		var ls Lanes
		for i := 0; i < b.N; i++ {
			ls.Start(r, 8056)
		}
	})
	b.Run("BoolBits64", func(b *testing.B) {
		var ls Lanes
		ls.Start(r, 8056)
		var th, bits [8]uint64
		for i := 0; i < b.N; i++ {
			ls.BoolBits(&bits, &th, 64)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(64*b.N), "ns/step")
	})
}
