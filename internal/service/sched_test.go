package service

import (
	"errors"
	"testing"
)

// The scheduler unit tests pin the weighted-fair invariants directly on
// newSched, with no workers attached: every next() call here pops a job
// that is already queued, so nothing blocks.

func mkjob(id, tenant string, class int) *job {
	return &job{task: task{kind: jobKind, id: id, state: StateQueued}, tenant: tenant, class: class}
}

func mustEnqueue(t *testing.T, s *sched, j *job) {
	t.Helper()
	shed, err := s.enqueue(j)
	if err != nil {
		t.Fatalf("enqueue %s: %v", j.id, err)
	}
	if shed != nil {
		t.Fatalf("enqueue %s unexpectedly shed %s", j.id, shed.id)
	}
}

// popOrder drains n jobs and returns their IDs in dequeue order.
func popOrder(t *testing.T, s *sched, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		j, ok := s.next()
		if !ok {
			t.Fatalf("next() closed after %d pops, want %d", i, n)
		}
		ids = append(ids, j.id)
	}
	return ids
}

// TestSchedStrideAlternation: two equal-weight tenants with backlogs
// take strict turns — tenant a's four queued jobs cannot delay tenant
// b's jobs by more than one slot each.
func TestSchedStrideAlternation(t *testing.T) {
	s := newSched(0, nil, nil)
	for i := 0; i < 4; i++ {
		mustEnqueue(t, s, mkjob("a"+string(rune('1'+i)), "a", classNormal))
	}
	for i := 0; i < 4; i++ {
		mustEnqueue(t, s, mkjob("b"+string(rune('1'+i)), "b", classNormal))
	}
	got := popOrder(t, s, 8)
	want := []string{"a1", "b1", "a2", "b2", "a3", "b3", "a4", "b4"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order = %v, want %v", got, want)
		}
	}
}

// TestSchedWeights: a weight-3 tenant drains three jobs for every one of
// a weight-1 tenant when both have backlog.
func TestSchedWeights(t *testing.T) {
	weights := map[string]float64{"heavy": 3, "light": 1}
	s := newSched(0, nil, func(tenant string) float64 { return weights[tenant] })
	for i := 0; i < 6; i++ {
		mustEnqueue(t, s, mkjob("h"+string(rune('1'+i)), "heavy", classNormal))
	}
	mustEnqueue(t, s, mkjob("l1", "light", classNormal))
	mustEnqueue(t, s, mkjob("l2", "light", classNormal))

	order := popOrder(t, s, 8)
	// Count heavy pops before each light job: the 3:1 share means l1 and
	// l2 dequeue after at most 1 and 4 heavy jobs respectively — never
	// behind the whole backlog of 6.
	heavyBefore := make(map[string]int)
	seen := 0
	for _, id := range order {
		if id[0] == 'h' {
			seen++
			continue
		}
		heavyBefore[id] = seen
	}
	if heavyBefore["l1"] > 1 || heavyBefore["l2"] > 4 {
		t.Errorf("light jobs waited behind %d/%d heavy jobs (order %v), want ≤1/≤4",
			heavyBefore["l1"], heavyBefore["l2"], order)
	}
}

// TestSchedStrictPriority: interactive beats normal beats batch, across
// tenants and regardless of arrival order.
func TestSchedStrictPriority(t *testing.T) {
	s := newSched(0, nil, nil)
	mustEnqueue(t, s, mkjob("batch1", "a", classBatch))
	mustEnqueue(t, s, mkjob("normal1", "b", classNormal))
	mustEnqueue(t, s, mkjob("inter1", "a", classInteractive))
	mustEnqueue(t, s, mkjob("inter2", "b", classInteractive))
	mustEnqueue(t, s, mkjob("normal2", "a", classNormal))

	got := popOrder(t, s, 5)
	rank := map[byte]int{'i': 2, 'n': 1, 'b': 0}
	for i := 1; i < len(got); i++ {
		if rank[got[i][0]] > rank[got[i-1][0]] {
			t.Fatalf("priority inversion in dequeue order %v", got)
		}
	}
	if got[0][0] != 'i' || got[4][0] != 'b' {
		t.Errorf("order %v: want interactive first, batch last", got)
	}
}

// TestSchedLateJoinerBounded: a tenant arriving after another built a
// deep backlog joins at the current virtual time — it neither waits for
// the whole backlog nor monopolizes the pool with lag credit.
func TestSchedLateJoinerBounded(t *testing.T) {
	s := newSched(0, nil, nil)
	for i := 0; i < 9; i++ {
		mustEnqueue(t, s, mkjob("a"+string(rune('1'+i)), "a", classNormal))
	}
	popOrder(t, s, 5) // a has dequeued 5 jobs; vtime is well past zero
	mustEnqueue(t, s, mkjob("b1", "b", classNormal))
	mustEnqueue(t, s, mkjob("b2", "b", classNormal))

	rest := popOrder(t, s, 6)
	for i, id := range rest {
		switch id {
		case "b1":
			if i > 1 {
				t.Errorf("late joiner's first job at slot %d of %v, want ≤ 1", i, rest)
			}
		case "b2":
			if i > 3 {
				t.Errorf("late joiner's second job at slot %d of %v, want ≤ 3", i, rest)
			}
		}
	}
}

// TestSchedLoadShed pins the victim-selection policy: an arriving job
// sheds only strictly lower classes, lowest class first, from the tail
// of the longest queue; when nothing outranks, the global bound refuses
// the arrival instead.
func TestSchedLoadShed(t *testing.T) {
	s := newSched(2, nil, nil)
	mustEnqueue(t, s, mkjob("batch1", "a", classBatch))
	mustEnqueue(t, s, mkjob("batch2", "a", classBatch))

	// Queue full of batch: an arriving batch job sheds nothing — its own
	// class never outranks itself.
	if _, err := s.enqueue(mkjob("batch3", "a", classBatch)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("same-class overflow err = %v, want ErrQueueFull", err)
	}

	// A normal arrival displaces the most recently queued batch job (the
	// tail — it has waited least).
	shed, err := s.enqueue(mkjob("normal1", "a", classNormal))
	if err != nil || shed == nil || shed.id != "batch2" {
		t.Fatalf("normal arrival shed %v (err %v), want batch2", shed, err)
	}
	if s.depth() != 2 {
		t.Fatalf("depth = %d after shed, want 2", s.depth())
	}

	// An interactive arrival sheds the lowest class first: batch1 goes,
	// normal1 survives.
	shed, err = s.enqueue(mkjob("inter1", "b", classInteractive))
	if err != nil || shed == nil || shed.id != "batch1" {
		t.Fatalf("interactive arrival shed %v (err %v), want batch1", shed, err)
	}

	// Next interactive arrival sheds normal1 — now the lowest queued class.
	shed, err = s.enqueue(mkjob("inter2", "b", classInteractive))
	if err != nil || shed == nil || shed.id != "normal1" {
		t.Fatalf("second interactive arrival shed %v (err %v), want normal1", shed, err)
	}

	// All interactive: nothing left to outrank, even for interactive.
	if _, err := s.enqueue(mkjob("inter3", "b", classInteractive)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("interactive-on-interactive overflow err = %v, want ErrQueueFull", err)
	}
}

// TestSchedTenantBound: the per-tenant cap refuses that tenant only; the
// recovered path bypasses both the per-tenant and the global bound.
func TestSchedTenantBound(t *testing.T) {
	capOf := func(tenant string) int {
		if tenant == "a" {
			return 2
		}
		return 0
	}
	s := newSched(3, capOf, nil)
	mustEnqueue(t, s, mkjob("a1", "a", classNormal))
	mustEnqueue(t, s, mkjob("a2", "a", classNormal))
	if _, err := s.enqueue(mkjob("a3", "a", classNormal)); !errors.Is(err, errTenantFull) {
		t.Fatalf("over-cap tenant err = %v, want errTenantFull", err)
	}
	// Another tenant is unaffected by a's bound.
	mustEnqueue(t, s, mkjob("b1", "b", classNormal))

	// Recovered jobs are admitted past both bounds: the queue may sit
	// over capacity after a restart.
	s.enqueueRecovered(mkjob("a4", "a", classNormal))
	s.enqueueRecovered(mkjob("b2", "b", classNormal))
	if got := s.depth(); got != 5 {
		t.Fatalf("depth = %d after recovered admits over capacity 3, want 5", got)
	}
	// While over capacity, new submissions are refused (degraded mode).
	if _, err := s.enqueue(mkjob("b3", "b", classNormal)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit err = %v, want ErrQueueFull", err)
	}
}

// TestSchedRemoveAndDrain: remove deletes a queued job exactly once, and
// a closed scheduler drains its backlog before reporting done.
func TestSchedRemoveAndDrain(t *testing.T) {
	s := newSched(0, nil, nil)
	j1 := mkjob("a1", "a", classNormal)
	j2 := mkjob("a2", "a", classNormal)
	j3 := mkjob("a3", "a", classNormal)
	mustEnqueue(t, s, j1)
	mustEnqueue(t, s, j2)
	mustEnqueue(t, s, j3)

	if !s.remove(j2) {
		t.Fatal("remove of a queued job reported false")
	}
	if s.remove(j2) {
		t.Fatal("second remove of the same job reported true")
	}
	if got := s.depth(); got != 2 {
		t.Fatalf("depth = %d after remove, want 2", got)
	}

	s.close()
	got := popOrder(t, s, 2)
	if got[0] != "a1" || got[1] != "a3" {
		t.Fatalf("drain order = %v, want [a1 a3]", got)
	}
	if _, ok := s.next(); ok {
		t.Fatal("next() after drain reported a job, want closed")
	}
	// Post-close enqueue is refused.
	if _, err := s.enqueue(mkjob("a4", "a", classNormal)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-close enqueue err = %v, want ErrShuttingDown", err)
	}
}

// TestSchedDepths checks the /v1/stats breakdown snapshot: per tenant,
// per class, anonymous rendered by name, empty flows omitted.
func TestSchedDepths(t *testing.T) {
	s := newSched(0, nil, nil)
	mustEnqueue(t, s, mkjob("a1", "alice", classNormal))
	mustEnqueue(t, s, mkjob("a2", "alice", classBatch))
	mustEnqueue(t, s, mkjob("x1", "", classInteractive))

	d := s.depths()
	if d["alice"]["normal"] != 1 || d["alice"]["batch"] != 1 {
		t.Errorf("alice depths = %v, want normal:1 batch:1", d["alice"])
	}
	if d["anonymous"]["interactive"] != 1 {
		t.Errorf("anonymous depths = %v, want interactive:1", d["anonymous"])
	}
	popOrder(t, s, 3)
	if got := s.depths(); len(got) != 0 {
		t.Errorf("depths after drain = %v, want empty", got)
	}
}
