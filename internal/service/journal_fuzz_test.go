package service

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// replayManager is the part of a Manager that journal recovery and
// SubmitAs touch, with no worker pool, so recovered jobs stay queued.
func replayManager() *Manager {
	cfg := ManagerConfig{QueueDepth: 1 << 20}.withDefaults()
	return &Manager{
		cfg:    cfg,
		jobs:   make(map[string]*job),
		sched:  newSched(cfg.QueueDepth, nil, nil),
		events: make([]atomic.Int64, numEvents),
	}
}

// queuedIDs is the set of jobs waiting in m's scheduler.
func queuedIDs(t *testing.T, m *Manager) map[string]bool {
	m.sched.mu.Lock()
	defer m.sched.mu.Unlock()
	ids := make(map[string]bool)
	for _, f := range m.sched.flows {
		for _, q := range f.queues {
			for _, j := range q {
				if ids[j.id] {
					t.Fatalf("job %q queued twice", j.id)
				}
				ids[j.id] = true
			}
		}
	}
	return ids
}

// checkJobTable requires every job ID to appear once in m.order and in
// m.jobs.
func checkJobTable(t *testing.T, m *Manager) {
	seen := make(map[string]bool)
	for _, id := range m.order {
		if seen[id] {
			t.Fatalf("job %q listed twice in the order", id)
		}
		seen[id] = true
		if j := m.jobs[id]; j == nil || j.id != id {
			t.Fatalf("job %q listed but not in the table", id)
		}
	}
	if len(m.jobs) != len(seen) {
		t.Fatalf("%d jobs in the table, %d listed", len(m.jobs), len(seen))
	}
}

// snapshotJSON renders m's compacted journal, the job table as replay
// sees it.
func snapshotJSON(t *testing.T, m *Manager) []byte {
	b, err := json.Marshal(m.snapshotRecords())
	if err != nil {
		t.Fatalf("snapshot does not encode: %v", err)
	}
	return b
}

// journalLines joins records into a journal file.
func journalLines(lines ...string) []byte {
	var b bytes.Buffer
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// FuzzJournalReplay writes arbitrary bytes as the journal and recovers
// from them the way NewManager does: readRecords, replay, re-admission,
// snapshotRecords and compact; then it recovers a second Manager from
// the compacted file. It must not panic. Every job ID must appear once
// in the order and the table; a job is re-queued exactly when no
// terminal record applied to it; restored results are nil or finite; a
// job resumes only from a checkpoint its options validate.
// The second recovery must skip no line and give the same job table and
// the same queued set, so no job is resurrected twice, and a submit
// after it must not reuse a restored ID.
func FuzzJournalReplay(f *testing.F) {
	pr4, err := os.ReadFile(filepath.Join("testdata", "journal_pr4.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pr4)
	const (
		sub1 = `{"type":"submit","job":"job-000001","time":"2026-04-01T09:00:00Z","req":{"circuit":"C432","population":{"size":1000,"seed":1},"options":{"seed":1}}}`
		sub2 = `{"type":"submit","job":"job-000002","time":"2026-04-01T09:00:01Z","tenant":"a","req":{"circuit":"C880","options":{"seed":2,"priority":"batch"}}}`
		st1  = `{"type":"start","job":"job-000001","time":"2026-04-01T09:00:02Z"}`
		cp1  = `{"type":"checkpoint","job":"job-000001","time":"2026-04-01T09:00:03Z","checkpoint":{"estimates":[1.25,1.5],"units":600,"observed_max":1.1,"rng":[1,2,3,4]}}`
		cp2  = `{"type":"checkpoint","job":"job-000001","time":"2026-04-01T09:00:03Z","checkpoint":{"records":[{"estimate":1.25,"units":300,"observed_max":1.1},{"estimate":1.5,"units":600,"observed_max":1.5}],"rng":[1,2,3,4]}}`
		// Lines of records from an index on: past the two records held,
		// negative, overlapping them, and carrying none.
		cpPast  = `{"type":"checkpoint","job":"job-000001","time":"2026-04-01T09:00:03Z","checkpoint":{"records":[{"estimate":1.75,"units":300,"observed_max":1.2}],"rng":[5,6,7,8]},"from":5}`
		cpNeg   = `{"type":"checkpoint","job":"job-000001","time":"2026-04-01T09:00:03Z","checkpoint":{"records":[{"estimate":1.75,"units":300,"observed_max":1.2}],"rng":[5,6,7,8]},"from":-1}`
		cpOver  = `{"type":"checkpoint","job":"job-000001","time":"2026-04-01T09:00:03Z","checkpoint":{"records":[{"estimate":1.5,"units":600,"observed_max":1.5},{"estimate":1.75,"units":300,"observed_max":1.2}],"rng":[5,6,7,8]},"from":1}`
		cpEmpty = `{"type":"checkpoint","job":"job-000001","time":"2026-04-01T09:00:03Z","checkpoint":{"records":[],"rng":[5,6,7,8]},"from":2}`
		term    = `{"type":"terminal","job":"job-000001","time":"2026-04-01T09:00:04Z","state":"done","result":{"estimate":12.5,"ci_low":11.5,"ci_high":13.5,"hyper_samples":6,"units":1800,"converged":true}}`
		ev1     = `{"type":"evict","job":"job-000001","time":"2026-04-01T09:00:05Z"}`
	)
	for _, seed := range [][]byte{
		// A torn tail and duplicate submits.
		journalLines(sub1, sub2, sub1, st1, `{"type":"checkpoint","job":"job-0`),
		append(journalLines(sub1, st1, cp1), sub2[:40]...),
		// Start, checkpoint and terminal records ahead of their submit.
		journalLines(st1, cp1, term, sub1, sub2),
		journalLines(`{"type":"start","job":"job-000002","time":"2026-04-01T09:00:00Z"}`, sub2, st1, sub1),
		// An evict before and after a terminal record.
		journalLines(sub1, ev1, term, sub2),
		journalLines(sub1, st1, term, ev1, sub2),
		// A checkpoint of records, after one in the list form written
		// before records, and before a terminal record.
		journalLines(sub1, st1, cp1, cp2),
		journalLines(sub1, st1, cp2, term),
		// Lines that extend the records held by index, good and bad.
		journalLines(sub1, st1, cp2, cpPast),
		journalLines(sub1, st1, cp2, cpNeg),
		journalLines(sub1, st1, cp2, cpOver, cpPast),
		journalLines(sub1, st1, cp2, cpEmpty),
		// Garbage checkpoints: NaN-free but invalid, a wrong shape, junk.
		journalLines(sub1, st1, cp1, `{"type":"checkpoint","job":"job-000001","time":"2026-04-01T09:00:03Z","checkpoint":{"estimates":[],"units":0}}`),
		journalLines(sub1, `{"type":"checkpoint","job":"job-000001","checkpoint":{"estimates":"x","rng":[1]}}`, `{"type":"checkpoint","job":"job-000001","checkpoint":{"estimates":[1e400]}}`),
		journalLines(sub1, "\x00\x00\x00", `{"type":"terminal","job":"job-000001","state":"running"}`, "{}", "[]"),
		// IDs at both ends of the counter and off its pattern.
		journalLines(`{"type":"submit","job":"job-9223372036854775807","req":{"circuit":"C432"}}`,
			`{"type":"submit","job":"job--9223372036854775808","req":{"circuit":"C432"}}`,
			`{"type":"submit","job":"job-000007x","req":{"circuit":"C432"}}`,
			`{"type":"submit","job":"x","req":{"circuit":"C432"}}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, journalName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _, err := readRecords(path)
		if err != nil {
			t.Fatalf("readRecords: %v", err)
		}

		m := replayManager()
		if err := m.recoverJournal(dir); err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer m.journal.close()
		checkJobTable(t, m)
		terminal := make(map[string]bool)
		for _, rec := range recs {
			if rec.Type == recTerminal && rec.State.Terminal() {
				terminal[rec.Job] = true
			}
		}
		queued := queuedIDs(t, m)
		for _, id := range m.order {
			j := m.jobs[id]
			switch {
			case terminal[id] == queued[id]:
				t.Fatalf("job %q: terminal record applied %v, re-queued %v", id, terminal[id], queued[id])
			case queued[id] && (j.state != StateQueued || !j.recovered):
				t.Fatalf("re-queued job %q in state %s, recovered %v", id, j.state, j.recovered)
			case !queued[id] && !j.state.Terminal():
				t.Fatalf("job %q neither queued nor terminal: %s", id, j.state)
			}
			if r := j.result; r != nil {
				for _, v := range []float64{r.Estimate, r.CILow, r.CIHigh, r.RelErr, r.SigmaSq, r.ObservedMax} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("job %q restored a non-finite result %+v", id, *r)
					}
				}
			}
			if j.resume != nil {
				opt := j.req.Options.toLib()
				opt.Checkpoint = j.resume
				if err := opt.Validate(); err != nil {
					t.Fatalf("job %q resumes from an invalid checkpoint: %v", id, err)
				}
			}
		}
		if recovered := m.counted(evJobsRecovered); int(recovered) != len(queued) {
			t.Fatalf("%d jobs counted recovered, %d queued", recovered, len(queued))
		}

		m2 := replayManager()
		if err := m2.recoverJournal(dir); err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		defer m2.journal.close()
		if n := m2.counted(evJournalSkipped); n != 0 {
			t.Fatalf("compacted journal has %d unparsable lines", n)
		}
		checkJobTable(t, m2)
		if a, b := snapshotJSON(t, m), snapshotJSON(t, m2); !bytes.Equal(a, b) {
			t.Fatalf("second replay changed the job table:\n  first  %s\n  second %s", a, b)
		}
		queued2 := queuedIDs(t, m2)
		if len(queued2) != len(queued) {
			t.Fatalf("second replay re-queued %d jobs, first %d", len(queued2), len(queued))
		}
		for id := range queued {
			if !queued2[id] {
				t.Fatalf("second replay did not re-queue %q", id)
			}
		}

		restored := make(map[string]bool, len(m2.order))
		for _, id := range m2.order {
			restored[id] = true
		}
		id, err := m2.Submit(smallJob(1))
		if err != nil {
			t.Fatalf("submit after replay: %v", err)
		}
		if restored[id] {
			t.Fatalf("submit after replay reused the restored ID %q", id)
		}
		checkJobTable(t, m2)
	})
}
