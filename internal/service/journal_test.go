package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/evt"
	"repro/internal/faultpoint"
)

// TestJournalRoundTrip appends records through the journal and reads
// them back byte-faithfully: every field a replay depends on — request,
// checkpoint (including the exact RNG state, float64 records and the
// index From of its first record), terminal state and result — must
// survive the trip.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jn, recs, skipped, err := newJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || skipped != 0 {
		t.Fatalf("fresh dir: %d records, %d skipped; want 0/0", len(recs), skipped)
	}
	if err := jn.compact(nil); err != nil { // opens the append handle
		t.Fatal(err)
	}

	req := smallJob(7)
	cp := &evt.Checkpoint{
		Records: []evt.HyperRecord{
			{Estimate: 1.25, Units: 300, ObservedMax: 1.1875},
			{Estimate: 1.3437500001, Units: 600, ObservedMax: 1.0000000000000002},
			{Estimate: 1.2999999999999998, Units: 300, ObservedMax: 1.125},
		},
		RNG:   [4]uint64{0xdeadbeef, 42, 1 << 63, 7},
		SimNS: 12345,
		FitNS: 678,
	}
	res := &journalResult{Estimate: 1.31, CILow: 1.2, CIHigh: 1.42, RelErr: 0.04,
		HyperSamples: 3, Units: 900, Converged: true, SigmaSq: 0.001, ObservedMax: 1.1875}
	now := time.Now().UTC()
	want := []record{
		{Type: recSubmit, Job: "job-000001", Time: now, Req: &req},
		{Type: recStart, Job: "job-000001", Time: now},
		{Type: recCheckpoint, Job: "job-000001", Time: now, Checkpoint: cp, From: 4},
		{Type: recTerminal, Job: "job-000001", Time: now, State: StateDone, Result: res},
	}
	for _, rec := range want {
		if err := jn.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jn.close()

	got, skipped, err := readRecords(jn.path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped = %d, want 0", skipped)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	if !reflect.DeepEqual(*got[0].Req, req) {
		t.Errorf("request did not round-trip: %+v != %+v", *got[0].Req, req)
	}
	gcp := got[2].Checkpoint
	if gcp == nil || gcp.RNG != cp.RNG || gcp.SimNS != cp.SimNS || gcp.FitNS != cp.FitNS || len(gcp.Records) != len(cp.Records) || got[2].From != 4 {
		t.Fatalf("checkpoint did not round-trip: %+v from %d != %+v from 4", gcp, got[2].From, cp)
	}
	for i, r := range gcp.Records {
		if r != cp.Records[i] {
			t.Errorf("record %d: %+v != %+v (float64 must round-trip bit-exactly)", i, r, cp.Records[i])
		}
	}
	if *got[3].Result != *res {
		t.Errorf("result did not round-trip: %+v != %+v", *got[3].Result, res)
	}
}

// TestJournalCheckpointReplay replays a journal written by hand: the
// chaos job's submit and start records and checkpoint lines. The lines
// are the run's first three, each carrying one record from its From on;
// the third checkpoint's whole record list in the list form written
// before checkpoints carried records (estimates, summed units, observed
// maximum); that list with one record no hyper-sample can produce; or
// whole lists without From, as lines were written before per-record
// lines, the last of them corrupt. Replay resumes from the last valid
// checkpoint and drops the others, and the job finishes with runOnce's
// bits either way: a dropped checkpoint re-runs the job from its submit
// record, with the same seed. A job that finished keeps no checkpoint.
func TestJournalCheckpointReplay(t *testing.T) {
	req := chaosJob()
	baseline := runOnce(t, req)

	// The job's real journal, from a run to the end.
	dir := t.TempDir()
	mgr, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitManagerTerminal(t, mgr, id)
	shutdownManager(t, mgr)
	recs, _, err := readRecords(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	var head, lines []record // submit and start; checkpoints
	for _, rec := range recs {
		switch rec.Type {
		case recSubmit, recStart:
			head = append(head, rec)
		case recCheckpoint:
			lines = append(lines, rec)
		}
	}
	if len(head) != 2 || len(lines) < 4 {
		t.Fatalf("journal has %d submit/start records and %d checkpoints, want 2 and ≥ 4", len(head), len(lines))
	}
	// whole(k) is the run's k-th checkpoint with its whole record list.
	whole := func(k int) evt.Checkpoint {
		cp := *lines[k-1].Checkpoint
		cp.Records = nil
		for _, l := range lines[:k] {
			cp.Records = append(cp.Records, l.Checkpoint.Records...)
		}
		return cp
	}
	cp := whole(3)
	list := struct {
		Estimates   []float64 `json:"estimates"`
		Units       int       `json:"units"`
		ObservedMax float64   `json:"observed_max"`
		RNG         [4]uint64 `json:"rng"`
	}{ObservedMax: math.Inf(-1), RNG: cp.RNG}
	for _, r := range cp.Records {
		list.Estimates = append(list.Estimates, r.Estimate)
		list.Units += r.Units
		list.ObservedMax = math.Max(list.ObservedMax, r.ObservedMax)
	}
	withRecord := func(cp evt.Checkpoint, mutate func(*evt.HyperRecord)) evt.Checkpoint {
		cp.Records = slices.Clone(cp.Records)
		mutate(&cp.Records[1])
		return cp
	}
	belowMax := func(r *evt.HyperRecord) { r.Estimate = r.ObservedMax / 2 }
	line := func(cp any) any {
		return map[string]any{"type": recCheckpoint, "job": id, "time": head[1].Time, "checkpoint": cp}
	}

	for _, tc := range []struct {
		name    string
		lines   []any
		resumes int // records the replayed checkpoint holds (0: none)
	}{
		{"records", []any{lines[0], lines[1], lines[2]}, 3},
		{"list form before records", []any{line(list)}, 0},
		{"estimate below its observed max", []any{line(withRecord(cp, belowMax))}, 0},
		{"units not whole attempts", []any{line(withRecord(cp, func(r *evt.HyperRecord) { r.Units++ }))}, 0},
		{"whole lists without from", []any{line(whole(1)), line(whole(2)), line(cp), line(withRecord(whole(4), belowMax))}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var raw []string
			for _, v := range append([]any{head[0], head[1]}, tc.lines...) {
				b, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				raw = append(raw, string(b))
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, journalName), journalLines(raw...), 0o644); err != nil {
				t.Fatal(err)
			}
			got := replayedCheckpoint(t, dir, id)
			if tc.resumes == 0 && got != nil {
				t.Fatalf("replay kept %+v, want no checkpoint", got)
			}
			if tc.resumes > 0 {
				if want := whole(tc.resumes); got == nil || !slices.Equal(got.Records, want.Records) || got.RNG != want.RNG {
					t.Fatalf("replay kept %+v, want the run's checkpoint %d", got, tc.resumes)
				}
			}

			mgr, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer shutdownManager(t, mgr)
			if st := waitManagerTerminal(t, mgr, id); st.State != StateDone {
				t.Fatalf("replayed job state = %s (%s), want done", st.State, st.Error)
			}
			res, err := mgr.Result(id)
			if err != nil {
				t.Fatal(err)
			}
			if kernel(res) != kernel(baseline) {
				t.Errorf("replayed job diverged:\n  replayed %+v\n  baseline %+v", res, baseline)
			}
			mgr.mu.Lock()
			kept := mgr.jobs[id].resume
			mgr.mu.Unlock()
			if kept != nil {
				t.Errorf("the finished job still holds its checkpoint of %d records", len(kept.Records))
			}
		})
	}
}

// replayedCheckpoint recovers the journal in dir on a Manager without
// workers, so no job runs, and returns the checkpoint job id would
// resume from. Recovery compacts the journal, as NewManager does.
func replayedCheckpoint(t *testing.T, dir, id string) *evt.Checkpoint {
	t.Helper()
	m := replayManager()
	if err := m.recoverJournal(dir); err != nil {
		t.Fatal(err)
	}
	m.journal.close()
	return m.jobs[id].resume
}

// checkpointLines returns the checkpoint records of the journal in dir.
func checkpointLines(t *testing.T, dir string) []record {
	t.Helper()
	recs, _, err := readRecords(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return slices.DeleteFunc(recs, func(rec record) bool { return rec.Type != recCheckpoint })
}

// TestJournalCheckpointBytes: a journaled job that runs its whole
// budget of 200 hyper-samples writes one record per checkpoint line,
// line k holding record k − 1 with From k − 1, so its checkpoint lines
// add up to O(k) bytes. Lines that each carried the whole list came to
// 1,595,481 bytes for this job.
func TestJournalCheckpointBytes(t *testing.T) {
	req := chaosJob()
	req.Options.Epsilon = 1e-9
	req.Options.MaxHyperSamples = 200
	dir := t.TempDir()
	mgr, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitManagerTerminal(t, mgr, id); st.State != StateDone || st.Progress == nil || st.Progress.HyperSamples != 200 {
		t.Fatalf("job = %+v, want done after 200 hyper-samples", st)
	}
	shutdownManager(t, mgr)

	raw, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	k, size := 0, 0
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		var rec record
		if json.Unmarshal(line, &rec) != nil || rec.Type != recCheckpoint {
			continue
		}
		if k++; rec.From != k-1 || len(rec.Checkpoint.Records) != 1 {
			t.Errorf("checkpoint line %d has From %d and %d records, want From %d and 1 record",
				k, rec.From, len(rec.Checkpoint.Records), k-1)
		}
		size += len(line)
	}
	if k != 200 {
		t.Errorf("%d checkpoint lines, want 200", k)
	}
	if size >= 100_000 {
		t.Errorf("checkpoint lines total %d bytes, want under 100 KB", size)
	}
}

// TestJournalLineFaults crashes a journaled job at its fourth
// hyper-sample after a fault in its checkpoint lines, restarts it, and
// requires runOnce's bits. A line whose boundary was lost (the
// service/checkpoint fault point) or whose fsync failed after the write
// is sent again inside the next line, so the job resumes from the last
// boundary before the crash; a corrupt line leaves the lines after it
// a gap, so the job resumes from the boundary before it.
func TestJournalLineFaults(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	baseline := runOnce(t, chaosJob())
	for _, tc := range []struct {
		name    string
		fault   string // fault point failed at the second boundary
		corrupt bool   // corrupt the second checkpoint line on disk
		froms   []int  // From of the first three lines
	}{
		{"boundary lost", "service/checkpoint", false, []int{0, 1, 3}},
		{"fsync failed, line re-sent", "service/journal-fsync", false, []int{0, 1, 1}},
		{"corrupt middle line", "", true, []int{0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			mgr, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			// The progress hook runs on the worker just before each
			// boundary's checkpoint: wait at the first until the submit
			// record is journaled, arm the fault for the second boundary
			// and park the worker at the fourth.
			submitted, gate, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
			mgr.OnProgress = func(_ string, p Progress) {
				switch p.HyperSamples {
				case 1:
					<-submitted
				case 2:
					if tc.fault != "" {
						faultpoint.Arm(tc.fault, 1, func() error { return errors.New("injected") })
					}
				case 4:
					close(gate)
					<-release
				}
			}
			id, err := mgr.Submit(chaosJob())
			if err != nil {
				t.Fatal(err)
			}
			close(submitted)
			<-gate
			crash(t, mgr, release)
			faultpoint.Reset()

			lines := checkpointLines(t, dir)
			if len(lines) < 3 {
				t.Fatalf("%d checkpoint lines before the crash, want ≥ 3", len(lines))
			}
			for i, want := range tc.froms {
				if lines[i].From != want {
					t.Fatalf("checkpoint line %d has From %d, want %d", i+1, lines[i].From, want)
				}
			}
			last := lines[len(lines)-1]
			want := last.From + len(last.Checkpoint.Records)
			if tc.corrupt {
				path := filepath.Join(dir, journalName)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				second, err := json.Marshal(lines[1])
				if err != nil {
					t.Fatal(err)
				}
				i := bytes.Index(raw, second)
				if i < 0 {
					t.Fatal("second checkpoint line not found in the journal")
				}
				raw[i] = '#'
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				want = 1
			}
			if cp := replayedCheckpoint(t, dir, id); cp == nil || len(cp.Records) != want {
				t.Fatalf("replay resumes from %+v, want the checkpoint of %d records", cp, want)
			}

			mgr2, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer shutdownManager(t, mgr2)
			if st := waitManagerTerminal(t, mgr2, id); st.State != StateDone {
				t.Fatalf("resumed job state = %s (%s), want done", st.State, st.Error)
			}
			res, err := mgr2.Result(id)
			if err != nil {
				t.Fatal(err)
			}
			if kernel(res) != kernel(baseline) {
				t.Errorf("resumed job diverged:\n  resumed  %+v\n  baseline %+v", res, baseline)
			}
		})
	}
}

// TestJournalTornTail corrupts the journal the way a crash mid-write
// does — a partial last line — plus a rotted line in the middle, and
// expects replay to skip both and keep everything else.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	jn, _, _, err := newJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.compact(nil); err != nil {
		t.Fatal(err)
	}
	req := smallJob(9)
	good := []record{
		{Type: recSubmit, Job: "job-000001", Time: time.Now(), Req: &req},
		{Type: recStart, Job: "job-000001", Time: time.Now()},
	}
	for _, rec := range good {
		if err := jn.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jn.close()

	raw, err := os.ReadFile(jn.path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	// Rot the middle line and tear the tail.
	corrupted := lines[0] + "{\"type\":###corrupt###}\n" + lines[1] + `{"type":"checkpoint","job":"job-0`
	if err := os.WriteFile(jn.path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, skipped, err := readRecords(jn.path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Errorf("skipped = %d, want 2 (one rotted line, one torn tail)", skipped)
	}
	if len(recs) != 2 || recs[0].Type != recSubmit || recs[1].Type != recStart {
		t.Fatalf("surviving records = %+v, want the submit and start", recs)
	}
}

// TestJournalOverlongLine replays a journal whose middle line is 65 MiB
// of zero bytes, the zero-filled tail a crash can leave, with a valid
// record after it. Replay must skip that line like any other corrupt
// one and keep both valid records, and the Manager must start and
// report the skipped line in its stats and on /debug/vars.
func TestJournalOverlongLine(t *testing.T) {
	dir := t.TempDir()
	req := smallJob(15)
	now := time.Now().UTC()
	var raw bytes.Buffer
	for _, rec := range []record{
		{Type: recSubmit, Job: "job-000001", Time: now, Req: &req},
		{Type: recStart, Job: "job-000001", Time: now},
	} {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		raw.Write(append(b, '\n'))
	}
	first := raw.Bytes()[:bytes.IndexByte(raw.Bytes(), '\n')+1]
	f, err := os.Create(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	write := func(b []byte) {
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	write(first)
	zeros := make([]byte, 1<<20)
	for i := 0; i < 65; i++ {
		write(zeros)
	}
	write([]byte{'\n'})
	write(raw.Bytes()[len(first):])
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	recs, skipped, err := readRecords(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1 (the overlong line)", skipped)
	}
	if len(recs) != 2 || recs[0].Type != recSubmit || recs[1].Type != recStart {
		t.Fatalf("surviving records = %+v, want the submit and start", recs)
	}

	before := evJournalSkipped.v.Value()
	mgr, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownManager(t, mgr)
	if got := mgr.Stats().JournalSkipped; got != 1 {
		t.Errorf("Stats().JournalSkipped = %d, want 1", got)
	}
	if got := evJournalSkipped.v.Value() - before; got != 1 {
		t.Errorf("maxpowerd_journal_lines_skipped rose by %d, want 1", got)
	}
	if n := mgr.counted(evJobsRecovered); n != 1 {
		t.Errorf("%d jobs re-enqueued, want 1", n)
	}
}

// TestJournalReplayRecordsBeforeSubmit replays a journal whose records
// are out of order the way a live Manager can write them: a worker
// journals a fast job's start and terminal records before SubmitAs gets
// to its submit record. The finished job must come back done with its
// result and must not be re-enqueued; a job whose start precedes its
// submit is recovered and re-run as usual.
func TestJournalReplayRecordsBeforeSubmit(t *testing.T) {
	dir := t.TempDir()
	jn, _, _, err := newJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.compact(nil); err != nil {
		t.Fatal(err)
	}
	done, live := smallJob(11), smallJob(12)
	res := &journalResult{Estimate: 1.31, CILow: 1.2, CIHigh: 1.42, RelErr: 0.04,
		HyperSamples: 3, Units: 900, Converged: true, ObservedMax: 1.1875}
	now := time.Now().UTC()
	for _, rec := range []record{
		{Type: recStart, Job: "job-000001", Time: now},
		{Type: recTerminal, Job: "job-000001", Time: now, State: StateDone, Result: res},
		{Type: recSubmit, Job: "job-000001", Time: now, Req: &done},
		{Type: recStart, Job: "job-000002", Time: now},
		{Type: recSubmit, Job: "job-000002", Time: now, Req: &live},
	} {
		if err := jn.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jn.close()

	mgr, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownManager(t, mgr)
	if n := mgr.counted(evJobsRecovered); n != 1 {
		t.Errorf("%d jobs re-enqueued, want 1 (only the unfinished job-000002)", n)
	}
	st, err := mgr.Status("job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Errorf("job-000001 state = %s, want done", st.State)
	}
	got, err := mgr.Result("job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate != res.Estimate || got.Units != res.Units {
		t.Errorf("job-000001 result = %+v, want the journaled %+v", got, res)
	}
	if st := waitManagerTerminal(t, mgr, "job-000002"); st.State != StateDone {
		t.Errorf("recovered job-000002 finished %s, want done", st.State)
	}
	id, err := mgr.Submit(smallJob(13))
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-000003" {
		t.Errorf("new job ID %s, want job-000003 (after the replayed IDs)", id)
	}
}

// TestJournalCompaction restarts a Manager over a journal that has
// accumulated per-hyper-sample checkpoints and expects the rewritten
// file to hold only the snapshot: one submit + one terminal/checkpoint
// record per job, with evicted jobs gone entirely.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	mgr, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mgr.Submit(smallJob(81))
	if err != nil {
		t.Fatal(err)
	}
	waitManagerTerminal(t, mgr, id)
	shutdownManager(t, mgr)

	before, _, err := readRecords(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if len(before) <= 3 {
		t.Fatalf("pre-compaction journal has %d records, expected submit+start+checkpoints+terminal", len(before))
	}

	mgr2, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownManager(t, mgr2)

	after, skipped, err := readRecords(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("compacted journal has %d unparsable lines", skipped)
	}
	// One submit + one start + one terminal for the finished job.
	if len(after) != 3 {
		t.Errorf("compacted journal has %d records, want 3: %+v", len(after), after)
	}
	st, err := mgr2.Status(id)
	if err != nil {
		t.Fatalf("restored job missing: %v", err)
	}
	if st.State != StateDone {
		t.Errorf("restored job state = %s, want done", st.State)
	}
	res1, err1 := mgr.Result(id)
	res2, err2 := mgr2.Result(id)
	if err1 != nil || err2 != nil {
		t.Fatalf("results: %v / %v", err1, err2)
	}
	if res1 != res2 {
		t.Errorf("restored result differs:\n  live    %+v\n  replay  %+v", res1, res2)
	}
}

// TestJournalDirSyncFailure: compaction renames the new journal over
// the old and then fsyncs the data directory. If that fsync fails, a
// crash could bring back the old journal while appends went to the new
// one, so recovery must fail loudly instead of acknowledging work into
// it. Once the directory syncs again, the same data dir recovers.
func TestJournalDirSyncFailure(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	dir := t.TempDir()
	mgr, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mgr.Submit(smallJob(82))
	if err != nil {
		t.Fatal(err)
	}
	waitManagerTerminal(t, mgr, id)
	shutdownManager(t, mgr)

	injected := errors.New("directory fsync said no")
	faultpoint.Arm("service/journal-dirsync", 1, func() error { return injected })
	if _, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir}); !errors.Is(err, injected) {
		t.Fatalf("recovery with a failed directory fsync returned %v, want the fsync error", err)
	}

	mgr2, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatalf("recovery after the directory syncs again: %v", err)
	}
	defer shutdownManager(t, mgr2)
	if st, err := mgr2.Status(id); err != nil || st.State != StateDone {
		t.Fatalf("restored job = %+v, %v; want done", st, err)
	}
}

// waitManagerTerminal polls the manager directly (no HTTP) until the job
// reaches a terminal state.
func waitManagerTerminal(t *testing.T, mgr *Manager, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st, err := mgr.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func shutdownManager(t *testing.T, mgr *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
