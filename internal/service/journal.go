package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/evt"
	"repro/internal/faultpoint"
	"repro/maxpower"
)

// The journal is maxpowerd's durability layer: an append-only file of
// JSON records, one per line, fsync'd after every append. Each job
// contributes a submit record, a start record when a worker picks it up,
// a checkpoint record after every completed hyper-sample, and a terminal
// record with its outcome. A checkpoint record carries the hyper-sample
// records the job has not journaled yet, from index From on, so a job's
// checkpoint lines add up to O(k) bytes. On restart the Manager replays
// the journal, restores terminal results, re-enqueues interrupted jobs
// from their last checkpoint (the estimator resumes them bit-identically
// — see evt.Checkpoint), and compacts the file down to one submit +
// last checkpoint/terminal record per live job, a checkpoint holding
// the whole record list (From 0).
//
// Torn tails are expected: a crash mid-write leaves a partial last line,
// which replay skips. Any record that fails to parse is likewise skipped
// rather than aborting recovery — a corrupt checkpoint only costs the
// hyper-samples since the previous good one.

const journalName = "journal.jsonl"

// Record types.
const (
	recSubmit     = "submit"
	recStart      = "start"
	recCheckpoint = "checkpoint"
	recTerminal   = "terminal"
	recEvict      = "evict"
)

// record is one journal line. Fields beyond Type/Job/Time are populated
// per type: Req on submit, Checkpoint and From on checkpoint, State/
// Error/CacheHit/Result on terminal.
type record struct {
	Type string      `json:"type"`
	Job  string      `json:"job"`
	Time time.Time   `json:"time"`
	Req  *JobRequest `json:"req,omitempty"`
	// Tenant attributes a submit record to its owner. Absent in
	// pre-tenant (PR 4-era) journals, which replay as the anonymous
	// tenant "" — the backward-compat contract the fixture test pins.
	Tenant string `json:"tenant,omitempty"`
	// Checkpoint holds the run's hyper-sample records from index From
	// on, and the RNG state after the last of them. Replay keeps the
	// first From records it holds for the job and appends the line's.
	// Lines written before per-record lines, and compaction, carry the
	// whole list (From 0).
	Checkpoint *evt.Checkpoint `json:"checkpoint,omitempty"`
	From       int             `json:"from,omitempty"`
	State      JobState        `json:"state,omitempty"`
	Error      string          `json:"error,omitempty"`
	CacheHit   bool            `json:"cache_hit,omitempty"`
	Result     *journalResult  `json:"result,omitempty"`
}

// journalResult persists the fields of a finished job's
// maxpower.Result that ResultFor serves, and nothing else. Non-finite
// values are sanitized exactly like the HTTP transport does, so a
// restored result reads back identically over the API. Older terminal
// records also carry sigma_sq_low, sigma_sq_hi, sim_ns and fit_ns;
// replay decodes leniently, so they restore and those keys are ignored.
type journalResult struct {
	Estimate     float64 `json:"estimate"`
	CILow        float64 `json:"ci_low"`
	CIHigh       float64 `json:"ci_high"`
	RelErr       float64 `json:"rel_err"`
	HyperSamples int     `json:"hyper_samples"`
	Units        int     `json:"units"`
	Converged    bool    `json:"converged"`
	SigmaSq      float64 `json:"sigma_sq"`
	ObservedMax  float64 `json:"observed_max"`
}

func toJournalResult(r *maxpower.Result) *journalResult {
	if r == nil {
		return nil
	}
	return &journalResult{
		Estimate: finite(r.Estimate), CILow: finite(r.CILow), CIHigh: finite(r.CIHigh),
		RelErr: finite(r.RelErr), HyperSamples: r.HyperSamples, Units: r.Units,
		Converged: r.Converged, SigmaSq: finite(r.SigmaSq),
		ObservedMax: finite(r.ObservedMax),
	}
}

func (jr *journalResult) toResult() *maxpower.Result {
	if jr == nil {
		return nil
	}
	return &maxpower.Result{
		Estimate: jr.Estimate, CILow: jr.CILow, CIHigh: jr.CIHigh,
		RelErr: jr.RelErr, HyperSamples: jr.HyperSamples, Units: jr.Units,
		Converged: jr.Converged, SigmaSq: jr.SigmaSq,
		ObservedMax: jr.ObservedMax,
	}
}

// journal owns the append handle. All methods are safe for concurrent
// use; every append is fsync'd before it returns, so an acknowledged
// record survives a crash.
type journal struct {
	mu   sync.Mutex
	dir  string
	path string
	f    *os.File
}

// newJournal reads (but does not yet rewrite) the journal in dir,
// returning the parsed records and the number of skipped (torn or
// corrupt) lines. The append handle is opened by compact.
func newJournal(dir string) (*journal, []record, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("service: journal dir: %w", err)
	}
	jn := &journal{dir: dir, path: filepath.Join(dir, journalName)}
	recs, skipped, err := readRecords(jn.path)
	if err != nil {
		return nil, nil, 0, err
	}
	return jn, recs, skipped, nil
}

// maxJournalLine bounds the length of a journal line replay parses,
// newline included. Checkpoint lines can be long, but none comes near
// it; a longer line is corrupt (a crash can leave a zero-filled tail of
// any length).
const maxJournalLine = 64 << 20

// readRecords parses a journal file line by line. Unparsable lines —
// the torn tail of a crash mid-write, bit rot anywhere, or a line over
// maxJournalLine — are skipped and counted, never fatal: recovery
// proceeds from what survives.
func readRecords(path string) ([]record, int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("service: open journal: %w", err)
	}
	defer f.Close()
	var (
		recs    []record
		skipped int
		line    []byte
		tooLong bool
	)
	br := bufio.NewReaderSize(f, 1<<20)
	for {
		chunk, err := br.ReadSlice('\n')
		if err != nil && err != bufio.ErrBufferFull && err != io.EOF {
			return nil, 0, fmt.Errorf("service: read journal: %w", err)
		}
		switch {
		case tooLong:
		case len(line)+len(chunk) > maxJournalLine:
			tooLong, line = true, line[:0]
		default:
			line = append(line, chunk...)
		}
		if err == bufio.ErrBufferFull {
			continue // the line goes on
		}
		line = bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r"))
		var rec record
		switch {
		case tooLong:
			skipped++
		case len(line) == 0:
		case json.Unmarshal(line, &rec) != nil || rec.Type == "" || rec.Job == "":
			skipped++
		default:
			recs = append(recs, rec)
		}
		if err == io.EOF {
			return recs, skipped, nil
		}
		line, tooLong = line[:0], false
	}
}

// compact atomically replaces the journal with the given records (the
// Manager's post-replay snapshot: one submit + latest checkpoint or
// terminal record per retained job) and opens the append handle. Write
// to a temp file, fsync, rename over, fsync the directory — a crash at
// any point leaves either the old journal or the new one, never a mix.
func (jn *journal) compact(recs []record) error {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.f != nil {
		jn.f.Close()
		jn.f = nil
	}
	tmp := jn.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("service: journal compact: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			f.Close()
			return fmt.Errorf("service: journal compact marshal: %w", err)
		}
		w.Write(b)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("service: journal compact flush: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("service: journal compact sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("service: journal compact close: %w", err)
	}
	if err := os.Rename(tmp, jn.path); err != nil {
		return fmt.Errorf("service: journal compact rename: %w", err)
	}
	if err := syncDir(jn.dir); err != nil {
		return fmt.Errorf("service: journal compact dir sync: %w", err)
	}
	af, err := os.OpenFile(jn.path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("service: journal reopen: %w", err)
	}
	jn.f = af
	return nil
}

// append writes one record and fsyncs. The two fault points bracket the
// write so chaos tests can simulate a failed write and a crash between
// write and fsync.
func (jn *journal) append(rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: journal marshal: %w", err)
	}
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.f == nil {
		return fmt.Errorf("service: journal closed")
	}
	if err := faultpoint.Hit("service/journal-write"); err != nil {
		return err
	}
	if _, err := jn.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("service: journal write: %w", err)
	}
	if err := faultpoint.Hit("service/journal-fsync"); err != nil {
		return err
	}
	if err := jn.f.Sync(); err != nil {
		return fmt.Errorf("service: journal sync: %w", err)
	}
	return nil
}

func (jn *journal) close() {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.f != nil {
		jn.f.Close()
		jn.f = nil
	}
}

// syncDir fsyncs a directory so a rename within it is durable. Until it
// succeeds, a crash may leave the directory naming the old file, so its
// error is the caller's: appends to a journal the directory may not name
// are not crash-safe. The fault point lets chaos tests fail it.
func syncDir(dir string) error {
	if err := faultpoint.Hit("service/journal-dirsync"); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
