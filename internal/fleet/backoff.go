package fleet

import (
	"math/rand"
	"time"
)

// Backoff computes capped, jittered exponential delays between shard
// retry attempts. The zero value is the default policy (on): 25 ms
// base, doubling per attempt, capped at 2 s, with "equal jitter" — the
// delay for retry a is uniform in [d/2, d) where d = min(Max,
// Base·2^(a-1)) — so a burst of retries against a recovering
// worker spreads out instead of arriving in lockstep, and a delay is
// never zero (which would re-hammer a queue-full worker) and never
// exceeds the deterministic cap (which keeps retry latency bounded).
type Backoff struct {
	// Disabled turns retry spacing off entirely: retries rotate to the
	// next worker immediately, the pre-backoff behavior.
	Disabled bool
	// Base is the nominal delay before the first retry (0 = 25 ms).
	Base time.Duration
	// Max caps the exponential growth (0 = 2 s).
	Max time.Duration
	// Jitter returns a uniform sample in [0, 1). Nil uses math/rand;
	// tests inject a deterministic source. Jitter never changes
	// estimation results — it only spaces dispatch attempts.
	Jitter func() float64
}

func (b Backoff) base() time.Duration {
	if b.Base > 0 {
		return b.Base
	}
	return 25 * time.Millisecond
}

func (b Backoff) max() time.Duration {
	if b.Max > 0 {
		return b.Max
	}
	return 2 * time.Second
}

// Delay returns the jittered delay before retry attempt a (1-based:
// a = 1 is the first retry). Attempts ≤ 0 and disabled policies wait
// nothing.
func (b Backoff) Delay(attempt int) time.Duration {
	if b.Disabled || attempt <= 0 {
		return 0
	}
	d := float64(b.base())
	cap := float64(b.max())
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	r := rand.Float64
	if b.Jitter != nil {
		r = b.Jitter
	}
	return time.Duration(d/2 + r()*d/2)
}
