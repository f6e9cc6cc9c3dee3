package main

import (
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// seedAt is the i-th seed of a named stream of run seed seed: a pure
// function, so a workload's inputs depend on -seed alone and both
// commits of a comparison do identical work.
func seedAt(seed uint64, stream string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return splitmix(splitmix(seed^h.Sum64()) + uint64(i))
}

// splitmix is the SplitMix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// arrival is one job of the open-loop schedule: when it is due after the
// start of the load, the tenant that submits it, and its estimator seed.
type arrival struct {
	Due    time.Duration
	Tenant int
	Seed   uint64
}

// schedule draws a Poisson arrival process of the given rate over d,
// conditioned on its expected count: that many arrival times uniform on
// [0, d), sorted (the order statistics of uniforms are exactly a Poisson
// process given its count). The jobs are dealt evenly to the tenants at
// random positions. A fixed count keeps the offered load equal across
// seeds; the times and the tenants come from seed alone.
func schedule(seed uint64, rate float64, d time.Duration, tenants int) []arrival {
	rng := stats.NewRNG(seedAt(seed, "arrivals", 0))
	n := int(math.Round(rate * d.Seconds()))
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * float64(d)
	}
	sort.Float64s(dues)
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{Due: time.Duration(dues[i]), Seed: seedAt(seed, "service-pop", i)}
	}
	for k, i := range rng.Perm(n) {
		out[i].Tenant = k % tenants
	}
	return out
}

// clock is the open loop's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop sends each arrival at start+Due by calling send in a
// goroutine of its own, never waiting on an earlier reply, and returns
// the start once every send has returned. A stalled generator sends late;
// send gets both the due and the actual send time, so latency can be
// measured from the due time and include the stall.
func openLoop(clk clock, sched []arrival, send func(i int, due, sent time.Time)) time.Time {
	start := clk.Now()
	var wg sync.WaitGroup
	for i, a := range sched {
		due := start.Add(a.Due)
		if d := due.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		sent := clk.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(i, due, sent)
		}()
	}
	wg.Wait()
	return start
}
