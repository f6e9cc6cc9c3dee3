package fleet_test

import (
	"testing"
	"time"

	"repro/internal/fleet"
)

// TestBackoffSchedule pins the deterministic (jitter = 0) delay ladder:
// half the nominal delay, doubling per attempt, capped at Max.
func TestBackoffSchedule(t *testing.T) {
	b := fleet.Backoff{
		Base:   100 * time.Millisecond,
		Max:    time.Second,
		Jitter: func() float64 { return 0 },
	}
	want := []time.Duration{
		50 * time.Millisecond,  // attempt 1: d = 100ms
		100 * time.Millisecond, // attempt 2: d = 200ms
		200 * time.Millisecond, // attempt 3: d = 400ms
		400 * time.Millisecond, // attempt 4: d = 800ms
		500 * time.Millisecond, // attempt 5: d = 1600ms capped to 1s
		500 * time.Millisecond, // attempt 6: still capped
	}
	for i, w := range want {
		if got := b.Delay(i + 1); got != w {
			t.Errorf("Delay(%d) = %s, want %s", i+1, got, w)
		}
	}
}

// TestBackoffJitterBounds: for any jitter sample in [0, 1) the delay
// stays within [d/2, d) — never zero, never past the cap.
func TestBackoffJitterBounds(t *testing.T) {
	for _, j := range []float64{0, 0.25, 0.5, 0.999999} {
		b := fleet.Backoff{
			Base:   40 * time.Millisecond,
			Max:    200 * time.Millisecond,
			Jitter: func() float64 { return j },
		}
		for a := 1; a <= 8; a++ {
			d := b.Delay(a)
			if d < 20*time.Millisecond {
				t.Errorf("jitter %v attempt %d: delay %s below d/2 floor", j, a, d)
			}
			if d >= 200*time.Millisecond {
				t.Errorf("jitter %v attempt %d: delay %s reached the cap (must stay under)", j, a, d)
			}
		}
	}
}

// TestBackoffDefaults: the zero value is the default on-policy
// (25 ms base, 2 s cap), and attempt 1 lands in [12.5 ms, 25 ms).
func TestBackoffDefaults(t *testing.T) {
	var b fleet.Backoff
	for i := 0; i < 50; i++ {
		d := b.Delay(1)
		if d < 12500*time.Microsecond || d >= 25*time.Millisecond {
			t.Fatalf("default Delay(1) = %s, want in [12.5ms, 25ms)", d)
		}
	}
	b.Jitter = func() float64 { return 0.999999 }
	for a := 1; a <= 20; a++ {
		if d := b.Delay(a); d >= 2*time.Second {
			t.Fatalf("default Delay(%d) = %s, exceeds the 2s cap", a, d)
		}
	}
}

// TestBackoffDisabled: Disabled and non-positive attempts wait nothing.
func TestBackoffDisabled(t *testing.T) {
	b := fleet.Backoff{Disabled: true}
	if d := b.Delay(3); d != 0 {
		t.Errorf("disabled Delay(3) = %s, want 0", d)
	}
	var on fleet.Backoff
	if d := on.Delay(0); d != 0 {
		t.Errorf("Delay(0) = %s, want 0", d)
	}
	if d := on.Delay(-1); d != 0 {
		t.Errorf("Delay(-1) = %s, want 0", d)
	}
}
