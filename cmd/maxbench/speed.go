package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on shares its cores. A fixed loop runs up
// to twice as slow in spells of 20-500 ms, and the share of slow time
// drifts over minutes, so raw times move by 10-20% between runs of the
// same code. Every run therefore also times a reference computation that
// uses none of the repository's code, and reports its timings at
// reference speed: raw times divided by the slowdown, the reference time
// over refNominal, measured around the work it corrects. Library
// workloads run the reference between estimates and around each set-up;
// the service workload runs it on the daemon's CPU beside its load.
// machine_slowdown, the mean over a run, is printed with every run to
// show how loaded the machine was; on a quiet machine it stays near 1.

// refNominal is the reference time on a 2-vCPU Intel Xeon VM at 2.1 GHz
// in its fast state, the machine the README's baseline was recorded on.
const refNominal = 350 * time.Microsecond

// refEvery spaces reference computations: about 0.7% of a run.
const refEvery = 50 * time.Millisecond

// speedRef times the reference computation. It is not safe for
// concurrent use: it runs between a workload's own calls, or on the one
// goroutine background starts.
type speedRef struct {
	last time.Time
	ns   []float64   // the reference times
	at   []time.Time // when each ended
	buf  []uint64
	// threadTime times the computation in its thread's CPU time, not in
	// wall time, for a thread that shares its CPU with the work it
	// corrects. The caller must keep the goroutine on one thread.
	threadTime bool
}

func newSpeedRef() *speedRef { return &speedRef{buf: make([]uint64, 1<<15)} }

// tick runs the reference computation when refEvery has passed since the
// last one, and returns the index of the latest. Library workloads call
// it before each estimate.
func (s *speedRef) tick() int {
	if time.Since(s.last) >= refEvery {
		s.run()
	}
	return len(s.ns) - 1
}

// between is the slowdown over reference computations k and k+1, the two
// either side of work done after tick returned k. The last stretch of a
// run may have no k+1.
func (s *speedRef) between(k int) float64 {
	return mean(s.ns[k:min(k+2, len(s.ns))]) / float64(refNominal)
}

// over is the slowdown over the reference computations from the last one
// ended before t0 to the first one ended after t1: those either side of
// work done from t0 to t1 on another goroutine, and any made meanwhile.
func (s *speedRef) over(t0, t1 time.Time) float64 {
	lo := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(t0) })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(t1) })
	lo, hi = max(lo-1, 0), min(hi+1, len(s.at))
	if lo >= hi {
		return s.slowdown()
	}
	return mean(s.ns[lo:hi]) / float64(refNominal)
}

// background runs the reference computation every refEvery on a
// goroutine of its own until the returned stop is first called; stop
// returns once that goroutine has ended. The service workload measures the
// daemon's CPU this way while its load runs: with cpu ≥ 0 the goroutine's
// thread is pinned to cpu and timed in CPU time, so the time it waits
// while the daemon runs there is not read as a slower machine.
func (s *speedRef) background(cpu int) (stop func(), err error) {
	s.threadTime = cpu >= 0
	quit, done, pinned := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		defer close(done)
		if cpu >= 0 {
			// Never unlocked: the pinned thread ends with this goroutine
			// rather than carry its affinity to others.
			runtime.LockOSThread()
			if err := pinThread(0, cpu); err != nil {
				pinned <- err
				return
			}
		}
		pinned <- nil
		t := time.NewTicker(refEvery)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				s.run()
			}
		}
	}()
	if err := <-pinned; err != nil {
		<-done
		return nil, fmt.Errorf("pin the speed reference to CPU %d: %w", cpu, err)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-done
		})
	}, nil
}

// refsAround is how many reference computations time the machine on each
// side of a set-up.
const refsAround = 5

// timeSetup runs f, which times one set-up, and returns that time in
// seconds at reference speed. A set-up lasts milliseconds, less than one
// spell of the machine's fast or slow state, so the slowdown it is
// divided by comes from reference computations made just before and just
// after it, not from the whole run.
func (s *speedRef) timeSetup(f func() (time.Duration, error)) (float64, error) {
	first := len(s.ns)
	for i := 0; i < refsAround; i++ {
		s.run()
	}
	took, err := f()
	for i := 0; i < refsAround; i++ {
		s.run()
	}
	return took.Seconds() / (mean(s.ns[first:]) / float64(refNominal)), err
}

// run times one reference computation: a linear congruential generator
// scattering updates over a 256 KiB table, which exercises the ALU and
// the caches the way the simulation kernels do.
func (s *speedRef) run() {
	t0, c0 := time.Now(), time.Duration(0)
	if s.threadTime {
		c0 = threadCPU()
	}
	x := uint64(1)
	for i := 0; i < 200_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		s.buf[x>>49] += x
	}
	s.last = time.Now()
	took := s.last.Sub(t0)
	if s.threadTime {
		took = threadCPU() - c0
	}
	s.ns = append(s.ns, float64(took))
	s.at = append(s.at, s.last)
}

// slowdown is the mean reference time over refNominal: above 1 when the
// machine ran slower than the reference machine. The mean, not the
// median, because work pays the slow state in proportion to its share.
// It is 1 before any reference computation ran.
func (s *speedRef) slowdown() float64 {
	if len(s.ns) == 0 {
		return 1
	}
	return mean(s.ns) / float64(refNominal)
}
