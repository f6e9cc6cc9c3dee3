package service

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

// retentionManager is a Manager with a job table and a scheduler but no
// worker goroutines, keeping retain terminal jobs for ttl.
func retentionManager(retain int, ttl time.Duration) *Manager {
	cfg := ManagerConfig{QueueDepth: 1 << 20, RetainJobs: retain, RetainFor: ttl}.withDefaults()
	return &Manager{
		cfg:    cfg,
		jobs:   make(map[string]*job),
		sched:  newSched(cfg.QueueDepth, nil, nil),
		events: make([]atomic.Int64, numEvents),
	}
}

// addJob puts a job in m's table at the end of the submission order,
// terminal (done) when finished is non-zero and queued otherwise. A
// terminal job is not yet filed for retention; finishedLocked does that.
func addJob(m *Manager, id string, finished time.Time) *job {
	j := &job{task: task{kind: jobKind, id: id, state: StateQueued, created: finished}}
	if !finished.IsZero() {
		j.state, j.started, j.finished = StateDone, finished, finished
	}
	m.jobs[id] = j
	m.appendOrderLocked(j)
	return j
}

// victimsBefore is the retention rule as one pass over the whole table,
// the way evictLocked applied it before it kept m.done, without
// changing the table: the terminal jobs finished before the TTL cutoff,
// in submission order, then, of the terminal jobs left, the
// oldest-finished beyond RetainJobs, ties in submission order.
func victimsBefore(m *Manager, now time.Time) []string {
	var victims []string
	aged := make(map[string]bool)
	if ttl := m.cfg.RetainFor; ttl > 0 {
		cutoff := now.Add(-ttl)
		for _, id := range m.order {
			if j := m.jobs[id]; j.state.Terminal() && j.finished.Before(cutoff) {
				victims = append(victims, id)
				aged[id] = true
			}
		}
	}
	if keep := m.cfg.RetainJobs; keep > 0 {
		var term []string
		for _, id := range m.order {
			if !aged[id] && m.jobs[id].state.Terminal() {
				term = append(term, id)
			}
		}
		if excess := len(term) - keep; excess > 0 {
			sort.SliceStable(term, func(a, b int) bool {
				return m.jobs[term[a]].finished.Before(m.jobs[term[b]].finished)
			})
			victims = append(victims, term[:excess]...)
		}
	}
	return victims
}

// evictIDs runs evictLocked and returns the victims its records name,
// after checking that the table stays consistent and the survivors keep
// their submission order.
func evictIDs(t *testing.T, m *Manager, now time.Time) []string {
	t.Helper()
	before := slices.Clone(m.order)
	recs := m.evictLocked(now)
	ids := make([]string, len(recs))
	gone := make(map[string]bool)
	for i, rec := range recs {
		if rec.Type != recEvict || !rec.Time.Equal(now) {
			t.Fatalf("record %d is %+v, want an evict record at %v", i, rec, now)
		}
		ids[i] = rec.Job
		gone[rec.Job] = true
	}
	checkJobTable(t, m)
	want := slices.DeleteFunc(before, func(id string) bool { return gone[id] })
	if !slices.Equal(m.order, want) {
		t.Fatalf("order after eviction %v, want %v", m.order, want)
	}
	terminal := 0
	for _, j := range m.jobs {
		if j.state.Terminal() {
			terminal++
		}
	}
	if len(m.done) != terminal {
		t.Fatalf("%d jobs filed for retention, %d terminal in the table", len(m.done), terminal)
	}
	return ids
}

// TestRetentionVictims pins the jobs retention evicts, and the order of
// their evict records, to the rule as it was applied before terminal
// jobs were kept in finish order: jobs that finished at the same time,
// filed out of submission order; the TTL and the count rule firing
// together; live jobs among the terminal ones; jobs restored from a
// journal out of finish order, then joined by live finishes; and 200
// random tables, each compared with victimsBefore.
func TestRetentionVictims(t *testing.T) {
	t0 := time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	type fin struct {
		id string
		s  int // finish second; -1 leaves the job queued
	}
	for _, tc := range []struct {
		name   string
		retain int
		ttl    time.Duration
		jobs   []fin    // in submission order
		filed  []string // the order the terminal jobs finish in
		now    int
		want   []string
	}{
		{
			name: "equal finish times go in submission order", retain: 1, ttl: -1,
			jobs:  []fin{{"a", 5}, {"b", 5}, {"c", 5}},
			filed: []string{"c", "a", "b"},
			want:  []string{"a", "b"},
		},
		{
			name: "oldest finished first", retain: 2, ttl: -1,
			jobs:  []fin{{"a", 9}, {"b", 3}, {"c", 7}, {"d", 1}},
			filed: []string{"d", "b", "c", "a"},
			want:  []string{"d", "b"},
		},
		{
			name: "live jobs are never evicted", retain: 1, ttl: -1,
			jobs:  []fin{{"a", -1}, {"b", 2}, {"c", -1}, {"d", 1}, {"e", 3}},
			filed: []string{"d", "b", "e"},
			want:  []string{"d", "b"},
		},
		{
			name: "TTL victims in submission order, then the count's in finish order", retain: 2, ttl: 10 * time.Second,
			jobs:  []fin{{"a", 4}, {"b", 2}, {"c", 30}, {"d", 3}, {"e", 25}, {"f", 20}, {"g", 28}, {"h", 20}},
			filed: []string{"b", "d", "a", "f", "h", "e", "g", "c"},
			now:   14,
			want:  []string{"b", "d", "a", "f", "h", "e"},
		},
		{
			name: "TTL alone", retain: 100, ttl: 10 * time.Second,
			jobs:  []fin{{"a", 9}, {"b", 1}, {"c", 10}, {"d", 11}},
			filed: []string{"b", "a", "c", "d"},
			now:   20,
			want:  []string{"a", "b"},
		},
		{
			name: "nothing to evict", retain: 3, ttl: 10 * time.Second,
			jobs:  []fin{{"a", 9}, {"b", 1}, {"c", -1}},
			filed: []string{"b", "a"},
			now:   5,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := retentionManager(tc.retain, tc.ttl)
			byID := make(map[string]*job)
			for _, f := range tc.jobs {
				var finished time.Time
				if f.s >= 0 {
					finished = at(f.s)
				}
				byID[f.id] = addJob(m, f.id, finished)
			}
			for _, id := range tc.filed {
				m.finishedLocked(byID[id])
			}
			now := at(tc.now)
			if ref := victimsBefore(m, now); !slices.Equal(ref, tc.want) {
				t.Fatalf("the reference evicts %v, the case says %v", ref, tc.want)
			}
			if got := evictIDs(t, m, now); !slices.Equal(got, tc.want) {
				t.Fatalf("evicted %v, want %v", got, tc.want)
			}
		})
	}

	t.Run("restored out of finish order", func(t *testing.T) {
		var recs, terminals []record
		for i, s := range []int{8, 3, 3, 9, 1, -1, 4} {
			id := fmt.Sprintf("job-%06d", i+1)
			recs = append(recs, record{Type: recSubmit, Job: id, Time: at(0), Req: &JobRequest{Circuit: "C432"}})
			if s >= 0 {
				terminals = append(terminals, record{Type: recTerminal, Job: id, Time: at(s), State: StateDone})
			}
		}
		// Terminal records in reverse submission order, none in finish
		// order.
		slices.Reverse(terminals)
		m := retentionManager(3, time.Minute)
		m.replay(append(recs, terminals...))
		// Two jobs finish live after the restore, one at the time of a
		// restored job.
		for _, s := range []int{3, 10} {
			m.finishedLocked(addJob(m, fmt.Sprintf("live-%d", s), at(s)))
		}
		now := at(62)
		want := victimsBefore(m, now)
		if got := evictIDs(t, m, now); !slices.Equal(got, want) || len(got) == 0 {
			t.Fatalf("evicted %v, want %v", got, want)
		}
		if want := []string{"job-000001", "job-000004", "job-000006", "live-10"}; !slices.Equal(m.order, want) {
			t.Fatalf("table left %v, want %v", m.order, want)
		}
	})

	t.Run("random tables", func(t *testing.T) {
		rng := stats.NewRNG(7)
		for trial := 0; trial < 200; trial++ {
			m := retentionManager(1+rng.Intn(12), time.Duration(rng.Intn(3)-1)*20*time.Second)
			var terminal []*job
			for i := 0; i < 5+rng.Intn(40); i++ {
				var finished time.Time
				if rng.Intn(5) > 0 {
					finished = at(rng.Intn(60)) // few distinct times: many ties
				}
				j := addJob(m, fmt.Sprintf("job-%03d", i), finished)
				if !finished.IsZero() {
					terminal = append(terminal, j)
				}
			}
			for _, k := range rng.Perm(len(terminal)) {
				m.finishedLocked(terminal[k])
			}
			for round := 0; round < 3; round++ {
				now := at(20 + rng.Intn(60))
				want := victimsBefore(m, now)
				if got := evictIDs(t, m, now); !slices.Equal(got, want) {
					t.Fatalf("trial %d round %d: evicted %v, want %v", trial, round, got, want)
				}
				m.cfg.RetainJobs = max(1, m.cfg.RetainJobs-rng.Intn(3))
			}
		}
	})
}

// BenchmarkSubmitRetained times one submission into a full table of
// terminal jobs, which evicts the oldest-finished, at 512 and 8,192
// retained jobs: the per-submit cost must not grow with the table. Each
// submitted job is cancelled at once, so it is the next to retire and
// no worker runs it.
func BenchmarkSubmitRetained(b *testing.B) {
	for _, retain := range []int{512, 8192} {
		b.Run(fmt.Sprintf("retain=%d", retain), func(b *testing.B) {
			m := retentionManager(retain, -1)
			submit := func() {
				id, err := m.Submit(smallJob(1))
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Cancel(id); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i <= retain; i++ {
				submit()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit()
			}
			b.StopTimer()
			if n := len(m.order); n != retain+1 {
				b.Fatalf("table holds %d jobs, want %d", n, retain+1)
			}
		})
	}
}
