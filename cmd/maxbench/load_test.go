package main

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/service"
)

// fakeClock advances only when the generator sleeps. stallAt makes one
// sleep overshoot, the way a descheduled generator wakes late.
type fakeClock struct {
	now     time.Time
	sleeps  int
	stallAt int
	stall   time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps++
	if c.sleeps == c.stallAt {
		d += c.stall
	}
	c.now = c.now.Add(d)
}

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0), stallAt: 1, stall: 40 * time.Millisecond}
	sched := []arrival{{Due: 0}, {Due: 10 * time.Millisecond}, {Due: 20 * time.Millisecond}}
	const serve = 2 * time.Millisecond // the fake server finishes each job this long after its send
	outs := make([]jobOutcome, len(sched))
	start := openLoop(clk, sched, func(i int, due, sent time.Time) {
		finished := sent.Add(serve)
		outs[i] = jobOutcome{due: due, sent: sent, status: service.JobStatus{State: service.StateDone, Finished: &finished}}
	})
	// Job 0 goes at once. The sleep before job 1 overshoots by 40 ms, so
	// job 1 is sent 40 ms late and job 2, already overdue then, 30 ms late.
	wantLag := []time.Duration{0, 40 * time.Millisecond, 30 * time.Millisecond}
	for i, o := range outs {
		if o.due != start.Add(sched[i].Due) {
			t.Errorf("job %d due %v, want start+%v", i, o.due.Sub(start), sched[i].Due)
		}
		if lag := o.sent.Sub(o.due); lag != wantLag[i] {
			t.Errorf("job %d lag %v, want %v", i, lag, wantLag[i])
		}
		if got, want := o.latency(), wantLag[i]+serve; got != want {
			t.Errorf("job %d latency %v, want %v: the stall must count", i, got, want)
		}
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	a := schedule(7, 150, 2*time.Second, 2)
	if b := schedule(7, 150, 2*time.Second, 2); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if c := schedule(8, 150, 2*time.Second, 2); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	if len(a) != 300 {
		t.Fatalf("%d arrivals, want 150/s × 2 s = 300", len(a))
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].Due < a[j].Due }) {
		t.Error("arrivals not in due order")
	}
	perTenant := make([]int, 2)
	for _, x := range a {
		if x.Due < 0 || x.Due >= 2*time.Second {
			t.Errorf("due %v outside [0, 2s)", x.Due)
		}
		perTenant[x.Tenant]++
	}
	if perTenant[0] != 150 || perTenant[1] != 150 {
		t.Errorf("tenants submit %v of 300 jobs, want 150 each", perTenant)
	}
}

func TestSeedListIsDeterministic(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := seedAt(42, "stream-timed", i)
		if s != seedAt(42, "stream-timed", i) {
			t.Fatalf("seed %d not reproducible", i)
		}
		if seen[s] {
			t.Fatalf("seed %d repeats", i)
		}
		seen[s] = true
	}
	if seedAt(42, "stream-timed", 0) == seedAt(43, "stream-timed", 0) {
		t.Error("run seed does not change the list")
	}
	if seedAt(42, "stream-timed", 0) == seedAt(42, "paper-tables", 0) {
		t.Error("workloads share a seed list")
	}
}
